#include "fusion/fusion_plan.hh"

#include <chrono>

#include "common/logging.hh"
#include "fusion/fused_executor.hh"
#include "fusion/plan.hh"
#include "kernels/weight_pack.hh"
#include "nn/autotune_net.hh"
#include "nn/reference.hh"
#include "obs/metrics.hh"
#include "tune/autotune.hh"
#include "tune/solver.hh"

namespace flcnn {

namespace {

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Group-output rows per pyramid of the LineBuffer preset, whose tip
 * spans the whole output width. One row, the paper's tip height, gives
 * the (filter block, row group) work items one row to share and makes
 * every tile carry its K - S BT rows per output row: on a 4-vCPU host,
 * VGG-five 224 at two threads took 538 ms (fp32) and 200 ms (int8) per
 * image at one row, 382 and 140 ms at four. At four rows, ten-pair
 * perfbench A/Bs against the row-streaming executor this preset
 * replaced kept img_s.linebuffer level and raised int8 serve.rps by a
 * fifth (EXPERIMENTS.md, "The line buffer as a full-width pyramid").
 */
constexpr int kLineBufferRows = 4;

/** Count one compile attempt ending in @p s under the "plan" scope. */
CompileStatus
counted(const PlanCompileOptions &opt, CompileStatus s)
{
    if (opt.metrics) {
        opt.metrics->addCounter("plan", "compiles", 1);
        // Declare the contract counter so a zero is visible (and
        // assertable by CI) even when nothing ever trips it.
        opt.metrics->addCounter("plan", "silent_fallbacks", 0);
        if (s != CompileStatus::Ok)
            opt.metrics->addCounter("plan", "compile_rejected", 1);
    }
    return s;
}

} // namespace

const char *
planEngineName(PlanEngine e)
{
    switch (e) {
      case PlanEngine::Reference:  return "reference";
      case PlanEngine::Fused:      return "fused";
      case PlanEngine::LineBuffer: return "linebuffer";
      case PlanEngine::Recompute:  return "recompute";
    }
    return "?";
}

const char *
compileStatusName(CompileStatus s)
{
    switch (s) {
      case CompileStatus::Ok:                  return "ok";
      case CompileStatus::EmptyPlan:           return "empty_plan";
      case CompileStatus::InvalidOp:           return "invalid_op";
      case CompileStatus::DuplicateOp:         return "duplicate_op";
      case CompileStatus::NonContiguousOp:     return "non_contiguous_op";
      case CompileStatus::MultiInputOp:        return "multi_input_op";
      case CompileStatus::UnsupportedOp:       return "unsupported_op";
      case CompileStatus::UnsupportedSequence: return "unsupported_sequence";
      case CompileStatus::AlreadyCompiled:     return "already_compiled";
      case CompileStatus::UnsupportedSchedule: return "unsupported_schedule";
    }
    return "?";
}

FusionPlan::FusionPlan(const Network &network, const NetworkWeights &w)
    : net(&network), weights(&w)
{
}

FusionPlan::~FusionPlan() = default;

FusionPlan::FusionPlan(const FusionPlan &other)
    : net(other.net), weights(other.weights), opList(other.opList)
{
}

FusionPlan &
FusionPlan::operator=(const FusionPlan &other)
{
    if (this == &other)
        return *this;
    net = other.net;
    weights = other.weights;
    opList = other.opList;
    opt_ = PlanCompileOptions{};
    isCompiled = false;
    compileSecs = 0.0;
    solverNames.clear();
    diag.clear();
    groups.clear();
    refPacks.reset();
    return *this;
}

void
FusionPlan::addOp(int layer_idx)
{
    FLCNN_ASSERT(!isCompiled, "addOp() on a compiled plan");
    opList.push_back(layer_idx);
}

void
FusionPlan::addRange(int first_layer, int last_layer)
{
    FLCNN_ASSERT(first_layer <= last_layer, "addRange order");
    for (int i = first_layer; i <= last_layer; i++)
        addOp(i);
}

CompileStatus
FusionPlan::fail(CompileStatus s, const std::string &why) const
{
    diag = std::string(compileStatusName(s)) + ": " + why;
    return s;
}

CompileStatus
FusionPlan::check(const PlanCompileOptions &opt) const
{
    if (opList.empty())
        return fail(CompileStatus::EmptyPlan, "no ops were added");
    for (size_t i = 0; i < opList.size(); i++) {
        if (opList[i] < 0 || opList[i] >= net->numLayers()) {
            return fail(CompileStatus::InvalidOp,
                        "op #" + std::to_string(i) + " names layer " +
                            std::to_string(opList[i]) + " of a " +
                            std::to_string(net->numLayers()) +
                            "-layer network");
        }
        for (size_t j = 0; j < i; j++) {
            if (opList[j] == opList[i]) {
                return fail(CompileStatus::DuplicateOp,
                            "layer " + std::to_string(opList[i]) +
                                " ('" +
                                net->layer(opList[i]).name +
                                "') was added twice");
            }
        }
    }
    for (size_t i = 1; i < opList.size(); i++) {
        if (opList[i] != opList[i - 1] + 1) {
            return fail(CompileStatus::NonContiguousOp,
                        "op #" + std::to_string(i) + " (layer " +
                            std::to_string(opList[i]) +
                            ") does not follow layer " +
                            std::to_string(opList[i - 1]) +
                            " — plans cover consecutive layers");
        }
    }
    const int first = opList.front();
    const int last = opList.back();
    for (int i = first; i <= last; i++) {
        if (net->layer(i).multiInput()) {
            return fail(CompileStatus::MultiInputOp,
                        "layer " + std::to_string(i) + " ('" +
                            net->layer(i).name + "') is a " +
                            layerKindName(net->layer(i).kind) +
                            " join; no engine fuses multi-input ops "
                            "(deferred, see ROADMAP)");
        }
    }
    if (!net->isPathRange(first, last)) {
        return fail(CompileStatus::UnsupportedSequence,
                    "layers [" + std::to_string(first) + ", " +
                        std::to_string(last) +
                        "] are not a path: an interior output escapes "
                        "to a branch outside the range, so the "
                        "intermediate cannot stay unmaterialized");
    }
    if (opt.engine != PlanEngine::Reference) {
        for (int i = first; i <= last; i++) {
            if (!net->layer(i).fusable()) {
                return fail(
                    CompileStatus::UnsupportedOp,
                    "layer " + std::to_string(i) + " ('" +
                        net->layer(i).name + "') is a " +
                        layerKindName(net->layer(i).kind) +
                        ", which the " +
                        planEngineName(opt.engine) +
                        " engine cannot fuse (see the supported-"
                        "fusions table)");
            }
        }
    }
    if (opt.tip <= 0) {
        return fail(CompileStatus::UnsupportedSequence,
                    "tip tile must be positive (got " +
                        std::to_string(opt.tip) + ")");
    }
    return CompileStatus::Ok;
}

CompileStatus
FusionPlan::reject(const PlanCompileOptions &opt, CompileStatus s,
                   const std::string &why)
{
    return counted(opt, fail(s, why));
}

CompileStatus
FusionPlan::compile(const PlanCompileOptions &opt,
                    std::vector<TilePlan> tiles)
{
    if (isCompiled) {
        return reject(opt, CompileStatus::AlreadyCompiled,
                      "plan is already pinned to the " +
                          std::string(planEngineName(opt_.engine)) +
                          " engine");
    }
    CompileStatus s = check(opt);
    if (s == CompileStatus::Ok && !tiles.empty()) {
        int next = opList.front();  // -1 once a group leaves a gap
        for (const TilePlan &t : tiles)
            next = t.firstLayer() == next ? t.lastLayer() + 1 : -1;
        if (opt.engine == PlanEngine::Reference ||
            next != opList.back() + 1) {
            s = fail(CompileStatus::UnsupportedSchedule,
                     "the groups must cut the ops into consecutive runs, "
                     "under a fused engine");
        }
    }
    if (counted(opt, s) != CompileStatus::Ok)
        return s;

    const double t0 = wallSeconds();
    const int first = opList.front();
    const int last = opList.back();
    const Precision mode =
        opt.precision ? opt.precision->mode() : Precision::Fp32;
    // The fast-math tier applies to fp32 on fused engines only; the
    // Reference engine is the golden baseline and stays exact.
    const bool fm = opt.fastMath && mode == Precision::Fp32 &&
                    opt.engine != PlanEngine::Reference;

    if (opt.tuneFirst)
        autotuneQueries(convQueriesForRange(*net, first, last, mode, fm));

    solverNames.clear();
    for (int i = first; i <= last; i++) {
        if (net->layer(i).kind != LayerKind::Conv)
            continue;
        ConvPlan cp = planConv(convLayerQuery(*net, i, mode, fm));
        solverNames.push_back(std::to_string(i) + ":" + cp.solver);
    }

    if (tiles.empty() && opt.engine != PlanEngine::Reference) {
        tiles.push_back(opt.engine == PlanEngine::LineBuffer
                            ? TilePlan(*net, first, last, kLineBufferRows,
                                       net->outShape(last).w)
                            : TilePlan(*net, first, last, opt.tip, opt.tip));
    }
    groups.reserve(tiles.size());
    for (TilePlan &t : tiles) {
        groups.emplace_back(*net, *weights, std::move(t),
                            opt.engine == PlanEngine::Recompute
                                ? FusedExecutor::Halo::Recompute
                                : FusedExecutor::Halo::Retain);
        groups.back().setPrecision(opt.precision);
        groups.back().setFastMath(opt.fastMath);
    }

    opt_ = opt;
    isCompiled = true;
    diag.clear();

    if (opt.engine == PlanEngine::Reference) {
        refPacks = std::make_unique<WeightPackCache>();
        if (opt.prepackWeights)
            prepackRange(*net, *weights, first, last, opt.precision,
                         *refPacks);
    } else if (opt.prepackWeights) {
        // One zero-image run populates the executors' weight-pack
        // caches (and touches every buffer), so the first real
        // execute() pays no packing cost.
        Tensor zero(net->inShape(first));
        (void)execute(zero);
    }

    compileSecs = wallSeconds() - t0;
    if (opt.metrics) {
        opt.metrics->addCounter("plan", "compile_ok", 1);
        if (opt.engine == PlanEngine::Reference)
            opt.metrics->addCounter("plan", "reference_compiles", 1);
        opt.metrics->addGauge("plan", "compile_seconds", compileSecs);
    }
    return CompileStatus::Ok;
}

int
FusionPlan::firstLayer() const
{
    FLCNN_ASSERT(!opList.empty(), "plan has no ops");
    return opList.front();
}

int
FusionPlan::lastLayer() const
{
    FLCNN_ASSERT(!opList.empty(), "plan has no ops");
    return opList.back();
}

Shape
FusionPlan::inShape() const
{
    return net->inShape(firstLayer());
}

Shape
FusionPlan::outShape() const
{
    return net->outShape(lastLayer());
}

Tensor
FusionPlan::execute(const Tensor &input, RunStats *stats)
{
    if (!groups.empty()) {
        Tensor out(outShape());
        executeInto(input, &out, stats);
        return out;
    }
    if (!isCompiled) {
        fatal("FusionPlan::execute() before a successful compile() "
              "(last status: %s)",
              diag.empty() ? "never compiled" : diag.c_str());
    }
    if (opt_.metrics)
        opt_.metrics->addCounter("plan", "executes", 1);
    FLCNN_ASSERT(!stats, "the Reference engine reports no RunStats");
    return runRange(*net, *weights, input, opList.front(), opList.back(),
                    opt_.precision, nullptr, refPacks.get());
}

void
FusionPlan::executeInto(const Tensor &input, Tensor *out, RunStats *stats)
{
    if (!isCompiled) {
        fatal("FusionPlan::executeInto() before a successful compile() "
              "(last status: %s)",
              diag.empty() ? "never compiled" : diag.c_str());
    }
    if (opt_.metrics)
        opt_.metrics->addCounter("plan", "executes", 1);
    if (groups.empty())
        panic("executeInto() on a plan without in-place output support");
    // Each group's output is the next group's input, through "DRAM".
    RunStats sum;
    Tensor mid;
    for (size_t g = 0; g < groups.size(); g++) {
        RunStats gs;
        if (g + 1 < groups.size())
            mid = groups[g].run(g ? mid : input, &gs);
        else
            groups[g].runInto(g ? mid : input, out, &gs);
        sum.loadedBytes += gs.loadedBytes;
        sum.storedBytes += gs.storedBytes;
        sum.reuseBytes += gs.reuseBytes;
        sum.workingBytes += gs.workingBytes;
        sum.pyramids += gs.pyramids;
        sum.ops += gs.ops;
    }
    if (stats)
        *stats = sum;
}

void
FusionPlan::setMetrics(MetricsRegistry *m)
{
    for (size_t g = 0; g < groups.size(); g++) {
        groups[g].setMetrics(
            m, m ? MetricsRegistry::groupPrefix(static_cast<int>(g)) : "");
    }
}

bool
FusionPlan::producesInto() const
{
    return isCompiled && opt_.engine != PlanEngine::Reference;
}

} // namespace flcnn
