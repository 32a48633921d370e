#include "serve/engine.hh"

#include "common/logging.hh"

namespace flcnn {

namespace {

/** The engine's private plan: a copy of the registered template when
 *  one exists (addModel already check()ed it), otherwise a fresh
 *  declaration of the spec's layer range. */
FusionPlan
makeEnginePlan(const ModelSpec &spec)
{
    FLCNN_ASSERT(spec.net && spec.weights, "model spec incomplete");
    if (spec.plan)
        return *spec.plan;  // copies the declaration, not compiled state
    FusionPlan plan(*spec.net, *spec.weights);
    plan.addRange(spec.firstLayer, spec.lastLayer);
    return plan;
}

} // namespace

ServeEngine::ServeEngine(const ModelSpec &spec)
    : mspec(spec), fplan(makeEnginePlan(spec))
{
}

void
ServeEngine::compileNow()
{
    CompileStatus st = fplan.compile(mspec.compile);
    if (st != CompileStatus::Ok) {
        fatal("model '%s': fusion plan does not compile onto the %s "
              "engine (%s)",
              mspec.name.c_str(), planEngineName(mspec.compile.engine),
              fplan.diagnostic().c_str());
    }
}

Tensor
ServeEngine::run(const Tensor &input)
{
    if (!fplan.compiled()) {
        lazyCount++;
        compileNow();
    }
    return fplan.execute(input);
}

void
ServeEngine::runInto(const Tensor &input, Tensor *out)
{
    if (!fplan.compiled()) {
        lazyCount++;
        compileNow();
    }
    fplan.executeInto(input, out);
}

void
ServeEngine::warmup()
{
    if (!fplan.compiled())
        compileNow();
}

} // namespace flcnn
