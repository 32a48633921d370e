#include "dse/exec.hh"

#include <cstdio>

#include "common/logging.hh"
#include "fusion/fused_executor.hh"
#include "nn/reference.hh"

namespace flcnn {
namespace dse {

std::string
scheduleExecutableReason(const Network &net, const Schedule &s)
{
    std::string err = validateSchedule(net, s);
    if (!err.empty())
        return err;
    for (size_t gi = 0; gi < s.groups.size(); gi++) {
        const GroupSchedule &g = s.groups[gi];
        char buf[128];
        if (g.flow != Dataflow::Pyramid && g.size() > 1) {
            std::snprintf(buf, sizeof buf,
                          "group %zu: no host executor for the %s "
                          "dataflow",
                          gi, dataflowName(g.flow));
            return buf;
        }
        const uint32_t meaningful = meaningfulRetainBits(net, g);
        if ((g.retainMask & meaningful) != meaningful) {
            std::snprintf(buf, sizeof buf,
                          "group %zu: recomputed boundaries have no "
                          "host executor",
                          gi);
            return buf;
        }
    }
    return "";
}

Tensor
executeSchedule(const Network &net, const NetworkWeights &weights,
                const Tensor &input, const Schedule &s)
{
    const std::string why = scheduleExecutableReason(net, s);
    if (!why.empty())
        panic("executing a non-executable schedule: %s", why.c_str());

    Tensor cur = input;
    for (const GroupSchedule &g : s.groups) {
        int fl, ll;
        groupLayerRange(net, StageGroup{g.firstStage, g.lastStage}, fl,
                        ll);
        if (g.size() == 1) {
            cur = runRange(net, weights, cur, fl, ll);
        } else {
            FusedExecutor exec(net, weights,
                               TilePlan(net, fl, ll, g.tileH,
                                        net.outShape(ll).w));
            cur = exec.run(cur);
        }
    }
    return cur;
}

} // namespace dse
} // namespace flcnn
