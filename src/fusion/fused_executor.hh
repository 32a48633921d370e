/**
 * @file
 * FusedExecutor: functional model of the fused-layer accelerator
 * (Listings 3 and 4 of the paper) under either of the paper's two ways
 * of handling the overlap between neighbouring pyramids (Section
 * III-C), chosen once per group by the Halo argument.
 *
 * Halo::Retain, the *reuse* strategy (the default). For every windowed
 * layer the executor keeps three on-chip buffers:
 *
 *  - tile: the layer's assembled input tile for the current pyramid;
 *  - BL ("buffer left"): the tile columns that overlap the next pyramid
 *    in the same row;
 *  - BT ("buffer top"): a full-plane-width strip of rows that overlap
 *    the next pyramid row.
 *
 * At each pyramid (row, col) the tile is assembled from BT (top strip),
 *  BL (left strip) and the fresh data produced by the preceding fused
 * layer in the same pyramid (or loaded from DRAM for the group's first
 * layer); the layer then computes exactly the fresh region of its output
 * that downstream layers have not seen. Every intermediate value is
 * computed exactly once — the defining property of the reuse model —
 * which the optional coverage tracker verifies.
 *
 * One deliberate deviation from the paper's Listing 4: the listing
 * updates BT across its own full tile width each iteration, which would
 * overwrite rows that pyramids later in the same row still need. This
 * implementation writes BT only up to the next pyramid's left edge (the
 * region no later pyramid in this row reads), resolving the hazard the
 * pseudo-code elides.
 *
 * Halo::Recompute, the *recompute* strategy: no boundary is retained and
 * no BL/BT exists. Every pyramid computes each layer's whole output span
 * from a tile holding its whole receptive span, so the group's first
 * layer re-reads the input overlap from DRAM and the overlapping
 * intermediate values are computed again by every pyramid that needs
 * them (RunStats counts both; DESIGN.md invariant 7). A windowed layer
 * past the first reads its producer's output buffer directly, since
 * that buffer holds exactly the tile. The coverage tracker then checks
 * only that the group output is fully covered.
 *
 * Threading: a wavefront over pyramid rows. A run uses L = min(pool
 * width, pyramid rows) *lanes*, started by one parallelFor(0, L) per
 * image; the chunk holding lanes [lo, hi) walks the rows in ascending
 * order and evaluates every row r with r mod L in [lo, hi), left to
 * right, with the conv and pool kernels running inline. Each lane owns
 * its tiles, BL buffers, fresh buffers, conv staging and tallies; the
 * one BT strip per layer is shared, and it is what orders the lanes,
 * layer by layer: layer li of pyramid (r, c) runs only once row r - 1
 * has finished layer li of pyramid rowReadyCol[c] — the first pyramid
 * whose BT writes cover every column (r, c) reads, and never less than
 * c itself, so that row r - 1 has also read what (r, c) overwrites
 * (c + 1 for dividing geometries). Layer li's BT strip is the only row
 * r - 1 state layer li touches, so successive rows overlap layer by
 * layer. Each row publishes its (pyramid, layer) progress through one
 * atomic counter, and wakes the next row only once that row's target
 * is reached. Under Retain every boundary stays a *retained* one: the
 * executor computes exactly what the serial raster walk computes, so
 * outputs, RunStats and coverage are identical at every thread count.
 * Under Recompute nothing orders the rows: recompute lanes never wait
 * or publish, and each pyramid computes the same values whichever lane
 * runs it. With one lane (a one-thread pool, a caller already inside a
 * parallel region such as a serving worker's InlineScope, a single
 * pyramid row, or a trace sink installed) the run is the plain raster
 * walk on the calling thread, publishing nothing, and the kernels' own
 * parallelFor calls use the pool; a traced run therefore emits its DRAM
 * accesses in raster order.
 *
 * A Retain plan whose tip spans the whole group output width is the
 * line buffer (PlanEngine::LineBuffer): one pyramid column, no BL, and
 * a BT strip per windowed layer that carries the K - S rows the next
 * band of rows re-reads. Its lanes pipeline the rows like the paper's
 * per-layer units (Section IV): row r runs a layer while row r - 1 runs
 * a later one.
 */

#ifndef FLCNN_FUSION_FUSED_EXECUTOR_HH
#define FLCNN_FUSION_FUSED_EXECUTOR_HH

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "fusion/plan.hh"
#include "kernels/conv_layer.hh"
#include "kernels/weight_pack.hh"
#include "nn/precision.hh"
#include "nn/reference.hh"
#include "nn/weights.hh"
#include "obs/metrics.hh"
#include "sim/trace.hh"
#include "tune/solver.hh"

namespace flcnn {

/** Functional fused-layer executor for one fusion group. */
class FusedExecutor
{
  public:
    /** How every boundary of the group handles the pyramid overlap. */
    enum class Halo
    {
        Retain,     //!< keep it in BL/BT reuse buffers (reuse model)
        Recompute,  //!< keep nothing, recompute it (recompute model)
    };

    /**
     * Prepare an executor for @p plan over @p net with @p weights under
     * the @p halo strategy. The referenced objects must outlive the
     * executor.
     */
    FusedExecutor(const Network &net, const NetworkWeights &weights,
                  TilePlan plan, Halo halo = Halo::Retain);

    /** Evaluate the fusion group on @p input (the first fused layer's
     *  full input plane). Returns the group output plane. */
    Tensor run(const Tensor &input, RunStats *stats = nullptr);

    /**
     * As run(), but write the group output into @p out, whose shape
     * must equal plan().groupOutput(). Every output element is
     * produced by the run (the coverage tracker proves it), so @p out
     * need not be zero-filled — on the serving hot path it is an
     * arena-backed view and this call performs no output allocation.
     */
    void runInto(const Tensor &input, Tensor *out,
                 RunStats *stats = nullptr);

    const TilePlan &plan() const { return tplan; }

    /**
     * Enable per-element coverage tracking (test instrumentation).
     * After run(), coverageReport() returns an empty string when the
     * group output is fully covered and, under Halo::Retain, every
     * produced element was computed exactly once and no element twice.
     */
    void setTrackCoverage(bool enable) { trackCoverage = enable; }
    std::string coverageReport() const;

    /**
     * Run subsequent pyramids under @p prec's precision mode: conv
     * tiles are staged into the mode's compute format and the mode's
     * kernels produce the fresh region (kernels/conv_layer.hh); every
     * other layer computes in fp32 as always. Results are bit-identical
     * to the precision reference (nn::runRange with the same @p prec).
     * Pass nullptr (the default state) for plain fp32. The pointed-to
     * state must outlive the executor.
     */
    void
    setPrecision(const NetPrecision *prec)
    {
        precision = prec;
        plannedRev = -1;
    }

    /**
     * Opt in to the fast-math conv tier (tune/solver.hh) for
     * subsequent fp32 runs: FMA kernels with reordered accumulators,
     * ULP-bounded against the exact path rather than bit-identical.
     * Off by default; never applies to int8/fp16 precision modes,
     * which stay bit-exact regardless.
     */
    void
    setFastMath(bool enable)
    {
        fastMath = enable;
        plannedRev = -1;
    }

    /** Stream every DRAM access of subsequent runs to @p sink
     *  (group-input reads and group-output writes; see sim/trace.hh
     *  for the address map). Pass nullptr to disable. */
    void setTraceSink(TraceSink sink) { traceSink = std::move(sink); }

    /**
     * Record per-fused-layer breakdowns of subsequent runs into @p m
     * (scopes "layer:<i>:<name>"): dram_read_bytes /
     * dram_write_bytes, mults / adds / compares, wall_seconds, and
     * buffer-occupancy gauges, plus run-level pyramid and weight-pack
     * hit/miss counters under the "" scope. @p scope_prefix is
     * prepended to every scope (FusionPlan::setMetrics passes
     * "group:<g>:" so its groups stay distinguishable in one
     * registry). Pass nullptr to detach. The registry must outlive
     * the executor or the next setMetrics().
     *
     * A ReLU directly after a conv runs as that conv's epilogue, inside
     * the conv's parallel work items: its time counts in the conv's
     * wall_seconds, while its own scope keeps its compares counter
     * (one per element, as the reference tallies). wall_seconds is a
     * sum over lanes: with L lanes running at once it can exceed the
     * run's wall-clock time by up to a factor of L.
     */
    void
    setMetrics(MetricsRegistry *m, std::string scope_prefix = "")
    {
        metrics = m;
        metricsPrefix = std::move(scope_prefix);
    }

  private:
    /** Per-fused-layer state shared by every lane. Read-only while the
     *  lanes run, except bt, whose hand-off between rows the row
     *  dependency orders. */
    struct LayerState
    {
        // The walk under the group's halo strategy, per pyramid row (Y)
        // and column (X): the rect the tile holds, the part of it that
        // arrives from the producer (or DRAM), and the output rect the
        // layer computes, empty where the layer is stalled. Retain: the
        // compute span, its fresh part and the fresh output; Recompute:
        // the full receptive span, all of it, and the whole output span.
        std::vector<Span> tileY, tileX, loadY, loadX, outY, outX;

        Tensor bt;           //!< C x overlapY x planeW ("buffer top")

        // Conv plan for this layer (solver + tuned config), refreshed
        // at the top of a run when the tune cache has changed.
        ConvPlan plan;

        // The conv as runConvRows() runs it: the plan's kernels and
        // the packed weights in the run's precision, resolved before
        // the lanes start (WeightPackCache is not thread-safe). Its
        // relu flag is set when the next fused layer is a ReLU, which
        // this conv's work items then apply to the rows they write.
        ConvLayerRun conv;

        // BT hand-off (windowed layers with overlapY > 0). Per pyramid
        // row: the earlier row whose BT writes this row reads, -1 for
        // none. Per pyramid column c: the writer row has written every
        // column c reads once it has finished pyramid btReadyCol[c]
        // (-1 where the layer is stalled).
        std::vector<int> btWriterRow;
        std::vector<int> btReadyCol;
    };

    /** Per-lane, per-fused-layer working state. */
    struct LaneLayer
    {
        // Assembly tile (windowed layers only).
        Tensor tile;
        Span tileY, tileX;   //!< global rect currently held in tile

        // Left reuse buffer (windowed layers with positive overlap).
        Tensor bl;           //!< C x maxTileH x overlapX
        Span blY, blX;       //!< global rect held in bl

        // The shared BT strip as this lane's current row sees it.
        int btBaseOld = 0;   //!< global first row of readable strip
        int btBaseNew = 0;   //!< global first row of strip being written
        int btWatermark = 0; //!< columns [0, watermark) hold new rows

        // Staged conv-input tile for non-fp32 precision modes.
        ConvStage stage;

        // Fresh output of this layer for the current pyramid. Pointwise
        // layers alias the producer's buffer (freshOwner picks whose).
        Tensor fresh;
        Span freshY, freshX; //!< global output rect held in fresh
        int freshOwner = -1; //!< fused-layer index owning the buffer

        // LRN only: one point's channel column (in-place update
        // scratch), sized once so pyramids allocate nothing.
        std::vector<float> lrnCol;

        // Coverage instrumentation (output plane of this layer).
        std::vector<uint8_t> coverage;
    };

    /** One fused layer's share of a lane's work, for setMetrics(). */
    struct LayerTally
    {
        double wall = 0.0;
        int64_t loaded = 0;
        OpCount ops;
    };

    /** Everything one lane writes while the lanes run. */
    struct Lane
    {
        std::vector<LaneLayer> layers;
        RunStats stats;
        std::vector<LayerTally> tally;  //!< per fused layer (metrics)
    };

    static constexpr int kNobodyWaits = std::numeric_limits<int>::max();

    /** One pyramid row's hand-off counters, on a cache line of its
     *  own: the (pyramid, layer) steps it has finished, and the step
     *  count the next row sleeps on (kNobodyWaits when it is awake). */
    struct alignas(64) RowProgress
    {
        std::atomic<int> done{0};
        std::atomic<int> want{kNobodyWaits};
    };

    /** Steps a row has finished once it is through layer @p li of
     *  pyramid @p c. */
    int
    stepsThrough(int c, int li) const
    {
        return c * tplan.numFusedLayers() + li + 1;
    }

    Lane makeLane() const;
    void runLanes(int lo, int hi, int nlanes);
    void runRow(Lane &ln, int r);
    void waitRow(int r, int steps);
    void publish(int r, int steps);
    void assembleTile(Lane &ln, int li, int r, int c);
    void saveReuse(Lane &ln, int li, int r, int c);
    void computeWindowed(Lane &ln, int li, int r, int c);
    void runPad(Lane &ln, int li, int r, int c);
    void runPointwise(Lane &ln, int li, int r, int c);

    /** The lane's fresh buffer and rect feeding fused layer li. */
    static LaneLayer &producer(Lane &ln, int li);

    /** Under Recompute a windowed layer past the first reads its
     *  producer's output buffer, which holds exactly its tile. */
    bool
    readsProducer(int li) const
    {
        return haloMode == Halo::Recompute && li > 0;
    }

    /** Copy a global rect from src (with rect anchor) into dst. */
    static void copyRect(const Tensor &src, Span src_y, Span src_x,
                         Tensor &dst, Span dst_y, Span dst_x,
                         Span rect_y, Span rect_x);

    const Network &net;
    const NetworkWeights &weights;
    TilePlan tplan;
    Halo haloMode;
    int64_t workingBytes = 0;    //!< one lane's tile + fresh buffers
    std::vector<LayerState> states;
    std::vector<Lane> lanes;     //!< grown on demand, never shrunk
    /** Per pyramid column c: the pyramid of row r - 1 whose layer li
     *  must be done before (r, c) runs layer li (see file comment);
     *  unused by Recompute. */
    std::vector<int> rowReadyCol;
    /** Per pyramid row, in runs that hand off (handOff). */
    std::unique_ptr<RowProgress[]> rowProgress;
    /** This run's lanes share BT strips: several lanes under Retain. */
    bool handOff = false;
    const Tensor *groupInput = nullptr;
    Tensor *groupOutput = nullptr;
    WeightPackCache packCache;  //!< per-fused-layer packed conv banks
    const NetPrecision *precision = nullptr;
    bool fastMath = false;
    bool trackCoverage = false;
    std::string coverageMsg;
    TraceSink traceSink;
    MetricsRegistry *metrics = nullptr;
    std::string metricsPrefix;   //!< prepended to every metric scope
    int64_t lastPackHits = 0;    //!< packCache.hits() after the last run
    int64_t lastPackMisses = 0;  //!< packCache.misses() likewise
    int64_t plannedRev = -1;     //!< TuneCache revision the layer plans
                                 //!< were computed at (-1 = never);
                                 //!< keeps steady-state runs free of
                                 //!< planner lookups and their string
                                 //!< allocations

    /** Emit one traced access when a sink is installed. */
    void
    trace(bool write, uint64_t addr, int64_t bytes)
    {
        if (traceSink && bytes > 0)
            traceSink(DramAccess{write, addr, bytes});
    }
};

} // namespace flcnn

#endif // FLCNN_FUSION_FUSED_EXECUTOR_HH
