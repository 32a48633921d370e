/**
 * @file
 * Host prober for the kernel autotuner.
 *
 * The solver registry picks kernel variants and performance configs per
 * machine; this module answers "which machine is this?". A HostProfile
 * carries the facts the solvers and the autotuner condition on — SIMD
 * capability bits, core topology, and the cache hierarchy — plus a
 * stable fingerprint string that keys the persistent tune cache
 * (tune/tune_cache.hh), so a cache file carried to a different machine
 * is simply ignored rather than mis-applied.
 *
 * Cache sizes come from sysconf() where the libc exposes them; when it
 * does not (some containers report 0), a pointer-walk microbenchmark
 * estimates the L1/L2 boundary by timing dependent loads over growing
 * working sets and finding the first >1.6x latency step. The probe runs
 * once per process and is cached.
 */

#ifndef FLCNN_TUNE_HOST_PROBE_HH
#define FLCNN_TUNE_HOST_PROBE_HH

#include <cstdint>
#include <string>

namespace flcnn {

/** One-time description of the machine the process runs on. */
struct HostProfile
{
    std::string cpuModel;   //!< /proc/cpuinfo model name ("" if unknown)
    int threads = 1;        //!< hardware_concurrency (>= 1)
    bool avx2 = false;      //!< AVX2 usable (build + runtime)
    bool fma = false;       //!< FMA3 usable (fast-math tier only)
    bool avxVnni = false;   //!< AVX-VNNI usable (int8 vpdpbusd path)
    bool amx = false;       //!< AMX-INT8 usable: CPUID and tile-data
                            //!< permission granted (i8.amx tier)
    int simdWidthBytes = 0; //!< widest usable vector (32 with AVX2)
    int64_t l1dBytes = 0;   //!< per-core L1 data cache (0 if unknown)
    int64_t l2Bytes = 0;    //!< per-core L2 (0 if unknown)
    int64_t l3Bytes = 0;    //!< shared L3 (0 if unknown)
    bool cachesMeasured = false; //!< true when sizes came from the
                                 //!< microbenchmark, not sysconf

    /**
     * Stable identity string for the persistent tune cache: model name
     * (sanitized), capability bits, thread count, and cache sizes.
     * Two processes on the same machine and build produce the same
     * fingerprint; a different machine (or a SIMD-off build, which
     * changes which kernels exist) produces a different one.
     */
    std::string fingerprint() const;
};

/** The process-wide host profile, probed once on first use. */
const HostProfile &hostProfile();

} // namespace flcnn

#endif // FLCNN_TUNE_HOST_PROBE_HH
