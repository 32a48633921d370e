/**
 * @file
 * Compile fusion plans for the whole network zoo and report per-plan
 * compile time, resolved solvers, and the no-silent-fallback counters.
 *
 * This is the CI smoke for the plan compile/execute contract: every
 * known-supported zoo network must compile onto every fused engine
 * with zero rejects and zero silent fallbacks (the `plan:` metrics
 * scope proves both). It doubles as a compile-time probe. The text
 * report ends with the int8 solver each fused conv plans to on this
 * host, so a CI log shows which int8 tier (i8.amx or lower) ran.
 *
 * Usage:
 *   plan_compile [--json] [--check] [--tip N]
 *
 *   --json    emit a machine-readable report (schema flcnn-plan-v1)
 *   --check   exit non-zero unless every compile succeeded and the
 *             silent_fallbacks counter is zero
 *   --tip N   pyramid tip for the Fused/Recompute engines (default 1)
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "fusion/fusion_plan.hh"
#include "nn/autotune_net.hh"
#include "nn/zoo.hh"
#include "obs/metrics.hh"

using namespace flcnn;

namespace {

struct PlanReport
{
    std::string net;
    std::string engine;
    CompileStatus status = CompileStatus::Ok;
    double compileSeconds = 0.0;
    std::vector<std::string> solvers;
    std::string diagnostic;
};

/** The fusable prefix of @p net: every zoo network opens with a run of
 *  Pad/Conv/Pool/ReLU/LRN stages; plans cover exactly that range. */
void
fusablePrefix(const Network &net, int *first, int *last)
{
    *first = net.stages().front().first;
    *last = net.stages().back().last;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    bool check = false;
    int tip = 1;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        } else if (std::strcmp(argv[i], "--tip") == 0) {
            tip = parseIntArgI("--tip", argValue(argc, argv, &i), 1,
                               1024);
        } else {
            fatal("unknown argument '%s' (want --json | --check | "
                  "--tip N)",
                  argv[i]);
        }
    }

    struct Entry
    {
        const char *label;
        Network net;
    };
    std::vector<Entry> zoo;
    zoo.push_back({"tiny", tinyNet()});
    zoo.push_back({"alexnet", alexnet()});
    zoo.push_back({"alexnet-fused-prefix", alexnetFusedPrefix()});
    zoo.push_back({"vggE-prefix5", vggEPrefix(5)});
    zoo.push_back({"googlenet-stem", googlenetStem()});

    const PlanEngine engines[] = {PlanEngine::Fused,
                                  PlanEngine::LineBuffer,
                                  PlanEngine::Recompute,
                                  PlanEngine::Reference};

    MetricsRegistry reg;
    std::vector<PlanReport> reports;
    std::vector<NetworkWeights> weights;  // keep alive for the plans
    weights.reserve(zoo.size());

    for (Entry &e : zoo) {
        Rng rng(42);
        weights.emplace_back(e.net, rng);
        int first, last;
        fusablePrefix(e.net, &first, &last);
        for (PlanEngine eng : engines) {
            FusionPlan plan(e.net, weights.back());
            plan.addRange(first, last);
            PlanCompileOptions opt;
            opt.engine = eng;
            opt.tip = tip;
            opt.metrics = &reg;
            PlanReport r;
            r.net = e.label;
            r.engine = planEngineName(eng);
            r.status = plan.compile(opt);
            r.compileSeconds = plan.compileSeconds();
            r.solvers = plan.solvers();
            r.diagnostic = plan.diagnostic();
            reports.push_back(std::move(r));
        }
    }

    const int64_t rejected = reg.counter("plan", "compile_rejected");
    const int64_t fallbacks = reg.counter("plan", "silent_fallbacks");

    if (json) {
        std::printf("{\n  \"schema\": \"flcnn-plan-v1\",\n");
        std::printf("  \"tip\": %d,\n", tip);
        std::printf("  \"plans\": [\n");
        for (size_t i = 0; i < reports.size(); i++) {
            const PlanReport &r = reports[i];
            std::printf("    {\"net\": \"%s\", \"engine\": \"%s\", "
                        "\"status\": \"%s\", \"compile_ms\": %.3f, "
                        "\"solvers\": [",
                        r.net.c_str(), r.engine.c_str(),
                        compileStatusName(r.status),
                        r.compileSeconds * 1e3);
            for (size_t s = 0; s < r.solvers.size(); s++)
                std::printf("%s\"%s\"", s ? ", " : "",
                            r.solvers[s].c_str());
            std::printf("]}%s\n",
                        i + 1 < reports.size() ? "," : "");
        }
        std::printf("  ],\n");
        std::printf("  \"compiles\": %lld,\n",
                    static_cast<long long>(reg.counter("plan",
                                                       "compiles")));
        std::printf("  \"compile_rejected\": %lld,\n",
                    static_cast<long long>(rejected));
        std::printf("  \"silent_fallbacks\": %lld\n",
                    static_cast<long long>(fallbacks));
        std::printf("}\n");
    } else {
        std::printf("%-22s %-11s %-22s %10s  solvers\n", "network",
                    "engine", "status", "compile ms");
        for (const PlanReport &r : reports) {
            std::printf("%-22s %-11s %-22s %10.3f  %zu\n",
                        r.net.c_str(), r.engine.c_str(),
                        compileStatusName(r.status),
                        r.compileSeconds * 1e3, r.solvers.size());
            if (r.status != CompileStatus::Ok)
                std::printf("    %s\n", r.diagnostic.c_str());
        }
        std::printf("\nplan compiles: %lld, rejected: %lld, silent "
                    "fallbacks: %lld\n",
                    static_cast<long long>(reg.counter("plan",
                                                       "compiles")),
                    static_cast<long long>(rejected),
                    static_cast<long long>(fallbacks));
        // The int8 tier each fused conv resolves to on this host, so a
        // log shows whether i8.amx (or only a lower tier) ran here.
        std::printf("\nint8 solvers (layer:solver):\n");
        for (const Entry &e : zoo) {
            int first, last;
            fusablePrefix(e.net, &first, &last);
            std::printf("  %-22s", e.label);
            for (int l = first; l <= last; l++) {
                if (e.net.layer(l).kind == LayerKind::Conv)
                    std::printf(" %d:%s", l,
                                planConv(convLayerQuery(e.net, l,
                                                        Precision::Int8,
                                                        false))
                                    .solver.c_str());
            }
            std::printf("\n");
        }
    }

    if (check) {
        if (fallbacks != 0)
            fatal("silent_fallbacks = %lld (contract: always 0)",
                  static_cast<long long>(fallbacks));
        if (rejected != 0)
            fatal("%lld plan(s) rejected for known-supported zoo "
                  "networks",
                  static_cast<long long>(rejected));
        for (const PlanReport &r : reports) {
            if (r.status != CompileStatus::Ok)
                fatal("%s/%s: %s", r.net.c_str(), r.engine.c_str(),
                      r.diagnostic.c_str());
        }
        std::printf("plan-compile check: OK\n");
    }
    return 0;
}
