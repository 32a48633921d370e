#include "tune/host_probe.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "kernels/conv_kernels.hh"

namespace flcnn {

namespace {

int64_t
sysconfCache(int name)
{
#if defined(_SC_LEVEL1_DCACHE_SIZE)
    long v = sysconf(name);
    return v > 0 ? static_cast<int64_t>(v) : 0;
#else
    (void)name;
    return 0;
#endif
}

std::string
cpuModelName()
{
    std::string model;
    if (FILE *f = std::fopen("/proc/cpuinfo", "r")) {
        char line[512];
        while (std::fgets(line, sizeof(line), f)) {
            if (std::strncmp(line, "model name", 10) != 0)
                continue;
            const char *colon = std::strchr(line, ':');
            if (!colon)
                continue;
            colon++;
            while (*colon == ' ' || *colon == '\t')
                colon++;
            model = colon;
            while (!model.empty() &&
                   (model.back() == '\n' || model.back() == '\r'))
                model.pop_back();
            break;
        }
        std::fclose(f);
    }
    return model;
}

/** Median ns per dependent load over a pointer ring of @p bytes. */
double
chaseNs(int64_t bytes)
{
    const size_t n = static_cast<size_t>(
        std::max<int64_t>(bytes / static_cast<int64_t>(sizeof(uint32_t)),
                          64));
    // Stride-16 ring: each hop lands on a new 64-byte line, the chain
    // is serially dependent, so time/hop ~ load-to-use latency at this
    // working-set size.
    std::vector<uint32_t> ring(n);
    const size_t stride = 16;
    for (size_t i = 0; i < n; i++)
        ring[i] = static_cast<uint32_t>((i + stride) % n);
    auto once = [&]() {
        const int hops = 1 << 16;
        uint32_t p = 0;
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < hops; i++)
            p = ring[p];
        auto t1 = std::chrono::steady_clock::now();
        // Fold p into the result so the chase cannot be optimized out.
        double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count() /
            hops;
        return ns + (p == 0xffffffffu ? 1e-9 : 0.0);
    };
    double best = once();
    for (int r = 0; r < 2; r++)
        best = std::min(best, once());
    return best;
}

/** Estimate the L1 size as the largest power-of-two working set whose
 *  chase latency stays within 1.6x of the smallest set's. */
int64_t
measureL1()
{
    const double base = chaseNs(8 * 1024);
    int64_t l1 = 8 * 1024;
    for (int64_t ws = 16 * 1024; ws <= 256 * 1024; ws *= 2) {
        if (chaseNs(ws) > base * 1.6)
            break;
        l1 = ws;
    }
    return l1;
}

HostProfile
probe()
{
    HostProfile p;
    p.cpuModel = cpuModelName();
    p.threads = std::max(1u, std::thread::hardware_concurrency());
    p.avx2 = convSimdEnabled();
    p.fma = convFmaEnabled();
    p.avxVnni = convVnniEnabled();
    p.amx = convAmxEnabled();
    p.simdWidthBytes = p.avx2 ? 32 : static_cast<int>(sizeof(float));
#if defined(_SC_LEVEL1_DCACHE_SIZE)
    p.l1dBytes = sysconfCache(_SC_LEVEL1_DCACHE_SIZE);
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
    p.l2Bytes = sysconfCache(_SC_LEVEL2_CACHE_SIZE);
#endif
#if defined(_SC_LEVEL3_CACHE_SIZE)
    p.l3Bytes = sysconfCache(_SC_LEVEL3_CACHE_SIZE);
#endif
    if (p.l1dBytes <= 0) {
        p.l1dBytes = measureL1();
        p.cachesMeasured = true;
    }
    return p;
}

} // namespace

std::string
HostProfile::fingerprint() const
{
    // Sanitize the model name: the fingerprint is a JSON object key and
    // a single token in logs.
    std::string model;
    for (char c : cpuModel) {
        if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '.' || c == '-')
            model += c;
        else if (c == ' ' && !model.empty() && model.back() != '_')
            model += '_';
    }
    if (model.empty())
        model = "unknown";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ";t%d;%s%s%s%s;l1=%lld;l2=%lld;l3=%lld", threads,
                  avx2 ? "avx2" : "scalar", fma ? "+fma" : "",
                  avxVnni ? "+vnni" : "", amx ? "+amx" : "",
                  static_cast<long long>(l1dBytes),
                  static_cast<long long>(l2Bytes),
                  static_cast<long long>(l3Bytes));
    return model + buf;
}

const HostProfile &
hostProfile()
{
    static const HostProfile p = probe();
    return p;
}

} // namespace flcnn
