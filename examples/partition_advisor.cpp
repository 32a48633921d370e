/**
 * @file
 * Partition advisor: the designer workflow of Section V-B. Given an
 * on-chip storage budget, recommend the fusion partition with the least
 * DRAM traffic that fits (how the paper's point B would be chosen).
 *
 * Usage:
 *   partition_advisor <storage_budget_KB> [alexnet | vgg <num_convs>]
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "dse/sweep.hh"
#include "model/transfer.hh"
#include "nn/zoo.hh"

using namespace flcnn;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::printf("usage: partition_advisor <storage_budget_KB> "
                    "[alexnet | vgg <num_convs>]\n");
        return 1;
    }
    double budget_kb =
        parseFloatArg("storage budget (KB)", argv[1], 0.0, 1e12);
    std::string which = "vgg";
    int convs = 5;
    for (int a = 2; a < argc; a++) {
        if (std::strcmp(argv[a], "alexnet") == 0) {
            which = "alexnet";
        } else if (std::strcmp(argv[a], "vgg") == 0) {
            which = "vgg";
            if (a + 1 < argc)
                convs = parseIntArgI("vgg conv count", argv[++a], 1, 16);
        } else {
            fatal("unknown argument '%s'", argv[a]);
        }
    }

    Network net =
        which == "alexnet" ? alexnet() : vggEPrefix(convs);
    const dse::SweepResult res = dse::runSweep(net, {});

    int64_t budget =
        static_cast<int64_t>(budget_kb * 1024.0);
    const DesignPoint *pick = bestUnderStorage(res.legacyFront, budget);
    if (!pick) {
        std::printf("no design fits under %.0f KB (the cheapest "
                    "non-trivial fusion needs %s)\n",
                    budget_kb,
                    formatBytes(res.legacyFront.front().storageBytes).c_str());
        return 1;
    }

    std::printf("network: %s; storage budget: %.0f KB\n\n",
                net.name().c_str(), budget_kb);
    std::printf("recommended partition: %s\n",
                partitionStr(pick->partition).c_str());
    const auto &stages = net.stages();
    for (const StageGroup &g : pick->partition) {
        std::printf("  pyramid over stages %d..%d:", g.firstStage,
                    g.lastStage);
        for (int s = g.firstStage; s <= g.lastStage; s++) {
            std::printf(" %s",
                        net.layer(stages[static_cast<size_t>(s)].windowed)
                            .name.c_str());
        }
        std::printf("\n");
    }

    int64_t lbl = layerByLayerTransferBytes(net);
    std::printf("\nstorage used : %s\n",
                formatBytes(pick->storageBytes).c_str());
    std::printf("DRAM traffic : %s per image (layer-by-layer: %s, "
                "%.1fx reduction)\n",
                formatBytes(pick->transferBytes).c_str(),
                formatBytes(lbl).c_str(),
                static_cast<double>(lbl) /
                    static_cast<double>(pick->transferBytes));

    std::printf("\nfull Pareto frontier for reference:\n");
    Table t({"partition", "storage KB", "transfer MB"});
    for (const auto &p : res.legacyFront) {
        t.addRow({partitionStr(p.partition),
                  fmtF(toKiB(p.storageBytes), 1),
                  fmtF(toMiB(p.transferBytes), 2)});
    }
    t.print();
    return 0;
}
