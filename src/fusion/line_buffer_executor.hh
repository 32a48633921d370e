/**
 * @file
 * LineBufferExecutor: a row-streaming realization of layer fusion.
 *
 * Where FusedExecutor mirrors the paper's per-pyramid organization
 * (Listings 3-4), this executor implements the equivalent dataflow at
 * row granularity: each fused layer keeps a circular line buffer of the
 * last K rows of its input; every time a row is completed it cascades
 * to the next layer, which emits its own rows as soon as its window is
 * filled. Intermediates never materialize beyond K rows per layer.
 *
 * The cascade runs on the calling thread; only the windowed layers'
 * row blocks go through the thread pool. So the element-wise glue is
 * kept inside those parallel work items or off the data entirely: a
 * ReLU directly after a conv is clamped by the conv's (filter block,
 * row) work items and then forwards the row pointer uncopied, and a
 * Pad feeding a windowed layer writes each row's interior straight
 * into that layer's ring.
 *
 * The executor serves two purposes: an independent cross-check of the
 * pyramid executor (both must equal the layer-by-layer reference
 * bit-exactly), and the software vehicle for the paper's Section VI-C
 * observation that layer fusion speeds up CPU evaluation (>2x on
 * AlexNet's first two layers) by keeping intermediates cache-resident.
 */

#ifndef FLCNN_FUSION_LINE_BUFFER_EXECUTOR_HH
#define FLCNN_FUSION_LINE_BUFFER_EXECUTOR_HH

#include <vector>

#include "common/opcount.hh"
#include "kernels/conv_layer.hh"
#include "kernels/weight_pack.hh"
#include "nn/network.hh"
#include "nn/precision.hh"
#include "nn/weights.hh"
#include "obs/metrics.hh"
#include "tensor/tensor.hh"
#include "tune/solver.hh"

namespace flcnn {

/** Row-streaming fused executor for a contiguous fusable layer range. */
class LineBufferExecutor
{
  public:
    /**
     * Prepare for fusing layers [first, last] of @p net.
     *
     * @param row_block produce up to this many output rows per drain of
     *   each windowed layer, with the filter loop outermost. Blocking
     *   amortizes weight re-streaming (each output row otherwise
     *   re-reads every filter), at the cost of (row_block-1)*S extra
     *   buffered input rows per layer. 1 = the classic line buffer.
     */
    LineBufferExecutor(const Network &net, const NetworkWeights &weights,
                       int first_layer, int last_layer,
                       int row_block = 1);

    /** Evaluate the fused range on @p input. */
    Tensor run(const Tensor &input, RunStats *stats = nullptr);

    /** As run(), but write the range output into @p out (shape must
     *  equal net.outShape(last)). Every output row is emitted by the
     *  cascade, so @p out need not be zero-filled — on the serving hot
     *  path it is an arena-backed view and this call performs no
     *  output allocation. */
    void runInto(const Tensor &input, Tensor *out,
                 RunStats *stats = nullptr);

    /** Line-buffer capacity in bytes (K rows per windowed layer). */
    int64_t bufferBytes() const;

    /**
     * Run subsequent rows under @p prec's precision mode: conv rings
     * are staged into the mode's compute format before each drain and
     * the mode's kernels emit the block (kernels/conv_layer.hh),
     * followed by the ReLU epilogue in every mode when a ReLU comes
     * next. Results are bit-identical to the precision reference. Pass
     * nullptr for plain fp32. The state must outlive the executor.
     */
    void
    setPrecision(const NetPrecision *prec)
    {
        precision = prec;
        plannedRev = -1;
    }

    /**
     * Opt in to the fast-math conv tier (tune/solver.hh) for
     * subsequent fp32 runs: FMA kernels, ULP-bounded rather than
     * bit-identical. Off by default; int8/fp16 modes stay exact.
     */
    void
    setFastMath(bool enable)
    {
        fastMath = enable;
        plannedRev = -1;
    }

    /**
     * Record per-fused-layer breakdowns of subsequent runs into @p m
     * (scopes "layer:<i>:<name>"): mults / adds / compares,
     * dram_read_bytes (head) / dram_write_bytes (tail), and
     * ring-buffer gauges. A ReLU fused into the preceding conv keeps
     * its compares in its own scope. The row cascade interleaves
     * layers, so wall time is recorded only as a run-level "" gauge,
     * not per layer. Pass nullptr to detach.
     */
    void setMetrics(MetricsRegistry *m) { metrics = m; }

  private:
    struct LayerState
    {
        Tensor ring;        //!< C x ringRows x W circular row store
        int ringRows = 0;   //!< capacity ((B-1)*S + K for windowed)
        int rowsIn = 0;     //!< input rows received so far
        int nextOut = 0;    //!< next output row to emit
        std::vector<float> rowBuf;   //!< C x W staging for one out row
        std::vector<float> blockBuf; //!< C x B x W staging for a block
        ConvStage stage;  //!< staged ring for non-fp32 conv modes
        int stagedIn = 0; //!< input rows already staged into `stage`
        ConvPlan plan;    //!< conv plan, refreshed at each run() start
        bool reluEpilogue = false; //!< conv: clamp rows for the next
                                   //!< layer, a ReLU that forwards them
        bool padIntoRing = false;  //!< Pad: write rows into the next
                                   //!< layer's ring, not rowBuf
    };

    /** Deliver input row @p y to fused layer @p li; cascade downstream. */
    void pushRow(int li, int y, const float *row_data, Tensor &output);

    /** Emit any output rows layer @p li can now produce. */
    void drain(int li, Tensor &output);

    const Network &net;
    const NetworkWeights &weights;
    int first, last;
    int rowBlock;
    std::vector<LayerState> states;
    RunStats curStats;
    WeightPackCache packCache;  //!< per-fused-layer packed conv banks
    const NetPrecision *precision = nullptr;
    bool fastMath = false;
    MetricsRegistry *metrics = nullptr;
    std::vector<OpCount> layerOps;  //!< per-layer tally (metrics only)
    std::vector<float> inputRow;    //!< C x W staging for input rows,
                                    //!< reused across runs (keeps the
                                    //!< serving hot path allocation-free)
    int64_t lastPackHits = 0;
    int64_t lastPackMisses = 0;
    int64_t plannedRev = -1;  //!< TuneCache revision of the layer plans
                              //!< (-1 = never planned)
};

} // namespace flcnn

#endif // FLCNN_FUSION_LINE_BUFFER_EXECUTOR_HH
