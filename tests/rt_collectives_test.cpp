// Collectives: correctness across process counts (parameterized sweep) and
// the BSP clock-synchronization contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "rt/collectives.hpp"
#include "rt/fault.hpp"
#include "rt/machine.hpp"

namespace rt = chaos::rt;
using chaos::f64;
using chaos::i64;
using chaos::u64;

// Per-thread allocation counter: each rank runs on its own thread, so a rank
// can count the heap allocations its own calls make. The hooks are kept out
// of line so the compiler never pairs an inlined malloc()/free() with a
// new-expression at a call site.
namespace {
thread_local i64 t_allocs = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

class CollectivesSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(ProcCounts, CollectivesSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

TEST_P(CollectivesSweep, Barrier) {
  rt::Machine::run(GetParam(), [](rt::Process& p) {
    for (int i = 0; i < 4; ++i) rt::barrier(p);
    EXPECT_EQ(p.stats().collectives, 4);
  });
}

TEST_P(CollectivesSweep, BroadcastScalarAndVector) {
  const int P = GetParam();
  rt::Machine::run(P, [&](rt::Process& p) {
    const int root = P - 1;
    const i64 v = p.rank() == root ? 31337 : -1;
    EXPECT_EQ(rt::broadcast(p, v, root), 31337);

    std::vector<f64> payload;
    if (p.rank() == root) payload = {1.5, 2.5, 3.5};
    auto got = rt::broadcast_vec(p, payload, root);
    EXPECT_EQ(got, (std::vector<f64>{1.5, 2.5, 3.5}));
  });
}

TEST_P(CollectivesSweep, AllreduceSumMaxMin) {
  const int P = GetParam();
  rt::Machine::run(P, [&](rt::Process& p) {
    const i64 r = p.rank();
    EXPECT_EQ(rt::allreduce_sum(p, r + 1), i64(P) * (P + 1) / 2);
    EXPECT_EQ(rt::allreduce_max(p, r), i64(P - 1));
    EXPECT_EQ(rt::allreduce_min(p, r), i64(0));
  });
}

TEST_P(CollectivesSweep, ExscanSum) {
  const int P = GetParam();
  rt::Machine::run(P, [&](rt::Process& p) {
    // Value r+1 at rank r: exclusive prefix at r is sum 1..r.
    const i64 got = rt::exscan_sum(p, i64{p.rank() + 1});
    EXPECT_EQ(got, i64(p.rank()) * (p.rank() + 1) / 2);
  });
}

TEST_P(CollectivesSweep, Allgather) {
  const int P = GetParam();
  rt::Machine::run(P, [&](rt::Process& p) {
    auto all = rt::allgather(p, i64{10 * p.rank()});
    ASSERT_EQ(static_cast<int>(all.size()), P);
    for (int r = 0; r < P; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], 10 * r);
  });
}

TEST_P(CollectivesSweep, AllgathervConcatenatesInRankOrder) {
  const int P = GetParam();
  rt::Machine::run(P, [&](rt::Process& p) {
    // Rank r contributes r elements, all equal to r.
    std::vector<i64> mine(static_cast<std::size_t>(p.rank()), p.rank());
    std::vector<i64> offsets;
    auto all = rt::allgatherv<i64>(p, mine, &offsets);
    ASSERT_EQ(static_cast<int>(offsets.size()), P + 1);
    for (int r = 0; r < P; ++r) {
      EXPECT_EQ(offsets[static_cast<std::size_t>(r) + 1] -
                    offsets[static_cast<std::size_t>(r)],
                r);
      for (i64 k = offsets[static_cast<std::size_t>(r)];
           k < offsets[static_cast<std::size_t>(r) + 1]; ++k) {
        EXPECT_EQ(all[static_cast<std::size_t>(k)], r);
      }
    }
  });
}

TEST_P(CollectivesSweep, AlltoallvTransposes) {
  const int P = GetParam();
  rt::Machine::run(P, [&](rt::Process& p) {
    // send[d] = {rank*100 + d}; so received[s] must be {s*100 + rank}.
    std::vector<std::vector<i64>> send(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) {
      send[static_cast<std::size_t>(d)] = {i64{100} * p.rank() + d};
    }
    auto recv = rt::alltoallv(p, send);
    for (int s = 0; s < P; ++s) {
      ASSERT_EQ(recv[static_cast<std::size_t>(s)].size(), 1u);
      EXPECT_EQ(recv[static_cast<std::size_t>(s)][0], i64{100} * s + p.rank());
    }
  });
}

TEST_P(CollectivesSweep, AlltoallvEmptyLanesAreFine) {
  const int P = GetParam();
  rt::Machine::run(P, [&](rt::Process& p) {
    // Only rank 0 sends, and only to the last rank.
    std::vector<std::vector<i64>> send(static_cast<std::size_t>(P));
    if (p.rank() == 0) send[static_cast<std::size_t>(P - 1)] = {5, 6};
    auto recv = rt::alltoallv(p, send);
    for (int s = 0; s < P; ++s) {
      if (p.rank() == P - 1 && s == 0) {
        EXPECT_EQ(recv[static_cast<std::size_t>(s)], (std::vector<i64>{5, 6}));
      } else {
        EXPECT_TRUE(recv[static_cast<std::size_t>(s)].empty());
      }
    }
  });
}

TEST_P(CollectivesSweep, GathervAndScatterv) {
  const int P = GetParam();
  rt::Machine::run(P, [&](rt::Process& p) {
    std::vector<i64> mine{i64{p.rank()}, i64{p.rank()} * 2};
    std::vector<i64> offsets;
    auto gathered = rt::gatherv<i64>(p, mine, /*root=*/0, &offsets);
    if (p.is_root()) {
      ASSERT_EQ(static_cast<int>(gathered.size()), 2 * P);
      for (int r = 0; r < P; ++r) {
        EXPECT_EQ(gathered[static_cast<std::size_t>(2 * r)], r);
        EXPECT_EQ(gathered[static_cast<std::size_t>(2 * r + 1)], 2 * r);
      }
    } else {
      EXPECT_TRUE(gathered.empty());
    }

    std::vector<std::vector<i64>> blocks;
    if (p.is_root()) {
      blocks.resize(static_cast<std::size_t>(P));
      for (int r = 0; r < P; ++r) {
        blocks[static_cast<std::size_t>(r)] = {i64{1000} + r};
      }
    }
    auto got = rt::scatterv(p, blocks, 0);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 1000 + p.rank());
  });
}

TEST(Collectives, BarrierEqualizesClocks) {
  rt::Machine::run(4, [](rt::Process& p) {
    // Rank 3 is far ahead in virtual time; a barrier must drag everyone up.
    if (p.rank() == 3) p.clock().charge(5e5);
    rt::barrier(p);
    EXPECT_GE(p.clock().now_us(), 5e5);
  });
}

TEST(Collectives, AlltoallvChargesPerMessage) {
  rt::Machine machine(4);
  machine.run([](rt::Process& p) {
    std::vector<std::vector<i64>> send(4);
    for (int d = 0; d < 4; ++d) {
      if (d != p.rank()) send[static_cast<std::size_t>(d)] = {1, 2, 3};
    }
    const double before = p.clock().now_us();
    (void)rt::alltoallv(p, send);
    // Three sends + three receives of 24 bytes each.
    const auto& c = p.params();
    const double expected = 3 * c.send_us(24) + 3 * c.recv_us(24);
    EXPECT_NEAR(p.clock().now_us() - before, expected, 1e-9);
    EXPECT_EQ(p.stats().messages_sent, 3);
    EXPECT_EQ(p.stats().messages_received, 3);
  });
}

TEST(ExchangeCsr, RoundTripsCountsAndPayload) {
  constexpr int P = 4;
  rt::Machine::run(P, [](rt::Process& p) {
    // Rank r sends one element (value 100*r + d) to every destination d.
    std::vector<i64> send(P), offsets(P + 1);
    for (int d = 0; d < P; ++d) {
      send[static_cast<std::size_t>(d)] = 100 * p.rank() + d;
      offsets[static_cast<std::size_t>(d)] = d;
    }
    offsets[P] = P;
    std::vector<i64> recv, recv_offsets, scratch;
    rt::exchange_csr<i64>(p, send, offsets, recv, recv_offsets, scratch);
    ASSERT_EQ(recv_offsets.size(), static_cast<std::size_t>(P) + 1);
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(P));
    for (int s = 0; s < P; ++s) {
      EXPECT_EQ(recv_offsets[static_cast<std::size_t>(s)], s);
      EXPECT_EQ(recv[static_cast<std::size_t>(s)], 100 * s + p.rank());
    }
  });
}

TEST(ExchangeCsr, RejectsNonMonotoneSendOffsets) {
  // The counts round is derived from a caller-supplied prefix; a decreasing
  // prefix means a negative segment count, which must be rejected BEFORE the
  // counts alltoall (so every rank throws synchronously, in Release too —
  // the check is always-on) instead of turning into a negative resize.
  rt::Machine::run(2, [](rt::Process& p) {
    const std::vector<i64> send(3, 7);
    const std::vector<i64> offsets{2, 1, 3};  // 2 -> 1 decreases
    std::vector<i64> recv, recv_offsets, scratch;
    EXPECT_THROW(
        rt::exchange_csr<i64>(p, send, offsets, recv, recv_offsets, scratch),
        chaos::ChaosError);
    rt::barrier(p);
  });
}

TEST(ExchangeCsr, RejectsReceivePrefixOverflow) {
  // Peer-controlled counts feed the receive prefix sum: claims that are
  // individually representable but collectively wrap i64 must trip the
  // overflow guard rather than become a bogus receive-buffer size. Both
  // ranks claim kHuge words for rank 1, so rank 1's receive prefix wraps
  // (the overflow guard) while rank 0 trips alltoallv_flat's buffer/prefix
  // entry check — every rank throws before entering the payload round, so
  // the body stays synchronous and nothing needs poisoning.
  rt::Machine::run(2, [](rt::Process& p) {
    constexpr i64 kHuge = i64{3} << 61;  // 2 x kHuge wraps i64
    const std::vector<i64> offsets{0, 0, kHuge};
    std::vector<i64> recv, recv_offsets, scratch;
    EXPECT_THROW(rt::exchange_csr<i64>(p, std::span<const i64>{}, offsets,
                                       recv, recv_offsets, scratch),
                 chaos::ChaosError);
    rt::barrier(p);
  });
}

// --- alltoallv_csr: the one-phase CSR exchange -----------------------------

namespace {

/// A seeded ragged CSR from @p rank: 0..5 values per destination, with
/// whole empty segments, each value naming (source, destination, ordinal).
void ragged_csr(int P, int rank, u64 seed, std::vector<i64>& send,
                std::vector<i64>& offsets) {
  send.clear();
  offsets.assign(1, 0);
  for (int d = 0; d < P; ++d) {
    const u64 h = (seed + 0x9e3779b97f4a7c15ull * static_cast<u64>(
                                  rank * 131 + d + 1)) >> 7;
    const i64 n = (h % 3 == 0) ? 0 : static_cast<i64>(h % 6);
    for (i64 k = 0; k < n; ++k) send.push_back(rank * 10000 + d * 100 + k);
    offsets.push_back(static_cast<i64>(send.size()));
  }
}

/// What one rank saw of one exchange.
struct ExchangeRecord {
  std::vector<i64> data;
  std::vector<i64> offsets;
  f64 clock = 0.0;
  std::vector<i64> stats;
  u64 publishes = 0;
  u64 barriers = 0;
};

std::vector<i64> stats_fields(const rt::MessageStats& s) {
  return {s.messages_sent, s.bytes_sent,      s.messages_received,
          s.bytes_received, s.collectives,    s.barriers,
          s.alltoallv_calls, s.alltoallv_bytes};
}

/// Runs one exchange per rank, nested (@p csr false) or CSR, on a machine
/// with a spec-free FaultPlan installed to count fault-site visits.
std::vector<ExchangeRecord> run_exchange(int P, u64 seed, bool csr) {
  rt::Machine m(P);
  rt::FaultPlan plan(P);
  m.install_fault_plan(&plan);
  std::vector<ExchangeRecord> out(static_cast<std::size_t>(P));
  m.run([&](rt::Process& p) {
    std::vector<i64> send, offsets;
    ragged_csr(P, p.rank(), seed, send, offsets);
    p.clock().charge(1.5 * p.rank());  // ragged entry clocks
    ExchangeRecord& r = out[static_cast<std::size_t>(p.rank())];
    if (csr) {
      rt::alltoallv_csr<i64>(p, send, offsets, r.data, r.offsets);
    } else {
      std::vector<std::vector<i64>> nested(static_cast<std::size_t>(P));
      for (int d = 0; d < P; ++d) {
        nested[static_cast<std::size_t>(d)].assign(
            send.begin() + offsets[static_cast<std::size_t>(d)],
            send.begin() + offsets[static_cast<std::size_t>(d) + 1]);
      }
      const auto got = rt::alltoallv(p, nested);
      r.offsets.assign(1, 0);
      for (const auto& seg : got) {
        r.data.insert(r.data.end(), seg.begin(), seg.end());
        r.offsets.push_back(static_cast<i64>(r.data.size()));
      }
    }
    r.clock = p.clock().now_us();
    r.stats = stats_fields(p.stats());
  });
  m.install_fault_plan(nullptr);
  for (int r = 0; r < P; ++r) {
    auto& rec = out[static_cast<std::size_t>(r)];
    rec.publishes = plan.visits(rt::FaultSite::BlackboardPublish, r);
    rec.barriers = plan.visits(rt::FaultSite::BarrierArrive, r);
  }
  return out;
}

/// Digest of what every rank saw of one exchange: received data and prefix,
/// clock bits, MessageStats fields and fault-site visits, rank by rank.
u64 exchange_digest(const std::vector<ExchangeRecord>& recs) {
  u64 h = 0xcbf29ce484222325ull;
  const auto mix = [&h](u64 v) { h = (h ^ v) * 0x100000001b3ull; };
  for (const ExchangeRecord& r : recs) {
    mix(r.data.size());
    for (const i64 v : r.data) mix(static_cast<u64>(v));
    for (const i64 v : r.offsets) mix(static_cast<u64>(v));
    mix(std::bit_cast<u64>(r.clock));
    for (const i64 v : r.stats) mix(static_cast<u64>(v));
    mix(r.publishes);
    mix(r.barriers);
  }
  return h;
}

}  // namespace

// The nested alltoallv is a wrapper over alltoallv_csr_read. These digests
// were recorded from its earlier stand-alone nested-vector implementation,
// and both forms must still reproduce that exchange's data, clocks, stats
// and fault-site visits bit for bit on random ragged CSRs (empty segments,
// P=1 included). Re-record with CHAOS_GOLDEN_RECORD=1 only when a change
// re-baselines the charge on purpose.
TEST_P(CollectivesSweep, AlltoallvKeepsItsRecordedOutcome) {
  struct Golden {
    int P;
    u64 seed;
    u64 digest;
  };
  static constexpr Golden kGolden[] = {
      {1, 1, 0x5d651d0e95ff379dull},
      {1, 77, 0x5d651d0e95ff379dull},
      {1, 4242, 0xa6e27f8be505b780ull},
      {2, 1, 0xaf9ba82fa30be45cull},
      {2, 77, 0x4626f095d039c5dfull},
      {2, 4242, 0x5d4dcde9ee2639b4ull},
      {3, 1, 0xfb02996327b750d5ull},
      {3, 77, 0x86b71dd1e16c8571ull},
      {3, 4242, 0x5a1379f084ac444cull},
      {4, 1, 0xd0fa625d161ba9a0ull},
      {4, 77, 0x4011d322616901f1ull},
      {4, 4242, 0x64e55eefbd369393ull},
      {7, 1, 0x7d77a2471361e85dull},
      {7, 77, 0xf30a8529a0a21277ull},
      {7, 4242, 0x18435cc18b501d02ull},
      {8, 1, 0x5948adc0f429f523ull},
      {8, 77, 0xb0df5ffe240641f8ull},
      {8, 4242, 0x99791efe2fde15eaull},
      {16, 1, 0x3c37cf8b29a4060aull},
      {16, 77, 0x3c0baba0460601abull},
      {16, 4242, 0x43a0e17593f07264ull},
  };
  const int P = GetParam();
  const bool record = std::getenv("CHAOS_GOLDEN_RECORD") != nullptr;
  for (const u64 seed : {1ull, 77ull, 4242ull}) {
    const u64 got = exchange_digest(run_exchange(P, seed, false));
    const u64 got_csr = exchange_digest(run_exchange(P, seed, true));
    if (record) {
      std::printf("      {%d, %llu, 0x%016llxull},\n", P,
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(got));
      continue;
    }
    const auto* it = std::find_if(
        std::begin(kGolden), std::end(kGolden),
        [&](const Golden& g) { return g.P == P && g.seed == seed; });
    ASSERT_NE(it, std::end(kGolden)) << "no recording for P=" << P;
    EXPECT_EQ(got, it->digest) << "nested, P=" << P << " seed " << seed;
    EXPECT_EQ(got_csr, it->digest) << "CSR, P=" << P << " seed " << seed;
  }
}

TEST_P(CollectivesSweep, AlltoallvCsrWarmRepeatAllocatesNothing) {
  const int P = GetParam();
  std::vector<i64> warm_allocs(static_cast<std::size_t>(P), -1);
  rt::Machine::run(P, [&](rt::Process& p) {
    std::vector<i64> send, offsets, recv, recv_offsets;
    ragged_csr(P, p.rank(), 9, send, offsets);
    rt::alltoallv_csr<i64>(p, send, offsets, recv, recv_offsets);
    const std::vector<i64> first = recv;
    const i64 before = t_allocs;
    rt::alltoallv_csr<i64>(p, send, offsets, recv, recv_offsets);
    warm_allocs[static_cast<std::size_t>(p.rank())] = t_allocs - before;
    EXPECT_EQ(recv, first);
  });
  for (const i64 a : warm_allocs) EXPECT_EQ(a, 0);
}

TEST_P(CollectivesSweep, AlltoallvCsrClearsOutputsOnAMidExchangeThrow) {
  const int P = GetParam();
  // Visit 1 of each site is this exchange's publish / fused sync (after the
  // publish): the faulted rank throws there, and its peers are released by
  // poison. The outputs arrive holding stale data and must leave empty.
  for (const rt::FaultSite site :
       {rt::FaultSite::BlackboardPublish, rt::FaultSite::BarrierArrive}) {
    rt::Machine m(P);
    rt::FaultPlan plan(P);
    plan.add({site, rt::FaultKind::Throw, P - 1, 1});
    m.install_fault_plan(&plan);
    std::vector<int> cleared(static_cast<std::size_t>(P), 0);
    EXPECT_THROW(m.run([&](rt::Process& p) {
                   std::vector<i64> send, offsets;
                   ragged_csr(P, p.rank(), 5, send, offsets);
                   std::vector<i64> recv{7, 7, 7};
                   std::vector<i64> recv_offsets{0, 3};
                   try {
                     rt::alltoallv_csr<i64>(p, send, offsets, recv,
                                            recv_offsets);
                   } catch (...) {
                     cleared[static_cast<std::size_t>(p.rank())] =
                         recv.empty() && recv_offsets.empty() ? 1 : 2;
                     throw;
                   }
                 }),
                 chaos::ChaosError);
    m.install_fault_plan(nullptr);
    for (const int c : cleared) EXPECT_EQ(c, 1);
  }
}
