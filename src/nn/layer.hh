/**
 * @file
 * Layer descriptors.
 *
 * A network is a sequence of LayerSpec values. Following the paper, the
 * spatially-windowed layers (convolution and pooling) are the units of
 * fusion; padding and ReLU layers are lightweight companions that are
 * always carried along with the adjacent convolution. LRN and fully
 * connected layers are described so the zoo networks are complete, but
 * are excluded from fusion groups exactly as in the paper.
 */

#ifndef FLCNN_NN_LAYER_HH
#define FLCNN_NN_LAYER_HH

#include <string>
#include <vector>

#include "tensor/tensor.hh"

namespace flcnn {

/** The kinds of layers the library understands. */
enum class LayerKind {
    Conv,            //!< 3D convolution (M filters of N x K x K)
    Pool,            //!< spatial max/avg pooling
    ReLU,            //!< elementwise max(x, 0)
    Pad,             //!< symmetric spatial zero-padding
    LRN,             //!< local response normalization (AlexNet)
    FullyConnected,  //!< dense classifier layer
    Add,             //!< elementwise sum of >= 2 inputs (ResNet skips)
    Concat,          //!< depth (channel) concatenation (GoogLeNet)
};

/** Pooling flavor. */
enum class PoolMode { Max, Avg };

/** Printable name of a layer kind. */
const char *layerKindName(LayerKind kind);

/**
 * Description of one network layer. Only the fields relevant to the
 * layer's kind are meaningful; validate() checks consistency.
 */
struct LayerSpec
{
    LayerKind kind = LayerKind::Conv;
    std::string name;

    int outChannels = 0;        //!< Conv: M; FullyConnected: output units
    int kernel = 0;             //!< Conv/Pool: K (square window)
    int stride = 1;             //!< Conv/Pool: S
    int pad = 0;                //!< Pad: border width on each side
    PoolMode poolMode = PoolMode::Max;
    int groups = 1;             //!< Conv: channel groups (AlexNet conv2/4/5)
    double lrnAlpha = 1e-4;     //!< LRN parameters (AlexNet defaults)
    double lrnBeta = 0.75;
    int lrnSize = 5;

    /** Construct a convolution spec. */
    static LayerSpec conv(std::string name, int m, int k, int s = 1,
                          int groups = 1);

    /** Construct a pooling spec. */
    static LayerSpec pool(std::string name, int k, int s,
                          PoolMode mode = PoolMode::Max);

    /** Construct a ReLU spec. */
    static LayerSpec relu(std::string name);

    /** Construct a padding spec. */
    static LayerSpec padding(std::string name, int p);

    /** Construct an LRN spec with AlexNet defaults. */
    static LayerSpec lrn(std::string name);

    /** Construct a fully connected spec. */
    static LayerSpec fullyConnected(std::string name, int units);

    /** Construct an elementwise-add spec (>= 2 identically shaped
     *  inputs; the DAG join of a residual skip connection). */
    static LayerSpec eltwiseAdd(std::string name);

    /** Construct a depth-concatenation spec (>= 2 inputs with equal
     *  spatial dims; output channels are the sum — inception joins). */
    static LayerSpec depthConcat(std::string name);

    /** True for layers with a spatial sliding window (Conv, Pool):
     *  the units the pyramid recursion steps across. */
    bool
    windowed() const
    {
        return kind == LayerKind::Conv || kind == LayerKind::Pool;
    }

    /** True for layers that preserve the spatial grid pointwise
     *  (ReLU, LRN). */
    bool
    pointwise() const
    {
        return kind == LayerKind::ReLU || kind == LayerKind::LRN;
    }

    /** True for layers a fusion pyramid may contain. Multi-input
     *  joins (Add, Concat) are excluded: the chain pyramids cannot
     *  express them (deferred in ROADMAP; DeCoILFNet in PAPERS.md). */
    bool
    fusable() const
    {
        return windowed() || pointwise() || kind == LayerKind::Pad;
    }

    /** True for layers that join several predecessor edges (Add,
     *  Concat) — the only kinds a DAG node may have in-degree > 1. */
    bool
    multiInput() const
    {
        return kind == LayerKind::Add || kind == LayerKind::Concat;
    }

    /** Output shape produced from @p in; panics if incompatible. */
    Shape outShape(const Shape &in) const;

    /** Output shape produced from several input edges (multi-input
     *  kinds; single-input kinds require ins.size() == 1). Panics if
     *  incompatible. */
    Shape outShapeMulti(const std::vector<Shape> &ins) const;

    /** Validate the spec against an input shape; returns an error
     *  message, or the empty string when valid. */
    std::string validate(const Shape &in) const;

    /** Validate the spec against its input edges (the multi-input
     *  form of validate()). */
    std::string validateMulti(const std::vector<Shape> &ins) const;

    /** One-line human-readable description. */
    std::string str() const;
};

} // namespace flcnn

#endif // FLCNN_NN_LAYER_HH
