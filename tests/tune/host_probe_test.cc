/**
 * @file
 * HostProfile: the probe runs once, reports a sane machine
 * description, and produces a stable whitespace-free fingerprint that
 * can key a JSON cache file.
 */

#include <gtest/gtest.h>

#include "tune/host_probe.hh"

namespace flcnn {
namespace {

TEST(HostProbe, ProfileIsSaneAndCachedPerProcess)
{
    const HostProfile &p = hostProfile();
    EXPECT_GE(p.threads, 1);
    EXPECT_GE(p.l1dBytes, 0);
    EXPECT_GE(p.l2Bytes, 0);
    EXPECT_GE(p.l3Bytes, 0);
    if (p.avx2) {
        EXPECT_GE(p.simdWidthBytes, 32);
    }
    // FMA and VNNI gate kernel tiers that are compiled against AVX2
    // intrinsics; the probe must never report them without it.
    if (p.fma || p.avxVnni || p.amx) {
        EXPECT_TRUE(p.avx2);
    }

    // One probe per process: the second call returns the same object.
    EXPECT_EQ(&p, &hostProfile());
}

TEST(HostProbe, FingerprintIsStableAndKeySafe)
{
    const HostProfile &p = hostProfile();
    const std::string fp = p.fingerprint();
    ASSERT_FALSE(fp.empty());
    EXPECT_EQ(fp, p.fingerprint());  // pure function of the profile

    // The fingerprint keys a JSON object and is matched verbatim on
    // load — no whitespace, quotes, or control characters allowed.
    for (char ch : fp) {
        EXPECT_NE(ch, ' ');
        EXPECT_NE(ch, '"');
        EXPECT_NE(ch, '\\');
        EXPECT_FALSE(ch == '\n' || ch == '\r' || ch == '\t');
    }

    // Thread count and cache sizes are part of the identity: a
    // different topology must produce a different fingerprint.
    EXPECT_NE(fp.find(";t" + std::to_string(p.threads)),
              std::string::npos);
    EXPECT_NE(fp.find("l1="), std::string::npos);
}

TEST(HostProbe, AmxTierSeparatesTuneCaches)
{
    // A tune cache written where i8.amx ran must not be read where it
    // cannot, and the other way round.
    HostProfile with = hostProfile(), without = hostProfile();
    with.amx = true;
    without.amx = false;
    EXPECT_NE(with.fingerprint().find("+amx;"), std::string::npos);
    EXPECT_EQ(without.fingerprint().find("amx"), std::string::npos);
    EXPECT_NE(with.fingerprint(), without.fingerprint());
}

} // namespace
} // namespace flcnn
