// Golden modeled clocks of the rebuild path. Each scenario runs on a seeded
// mesh (or seeded maps) at P in {1, 2, 3, 5, 8} and pins, per rank, the exact
// bit pattern of the final virtual clock, a digest of every MessageStats
// field, and a digest of the results. Any change to a modeled charge, to the
// collective protocol, or to the answers fails here, however small.
//
// The table below was recorded before the rebuild path moved onto flat
// buffers and the one-phase CSR exchange; it must not be re-recorded to make
// a change pass. To print a fresh table (for a change that re-baselines
// modeled time on purpose, documented in CHANGES.md):
//
//   CHAOS_GOLDEN_RECORD=1 ./integration_golden_clock_test
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/inspector.hpp"
#include "core/iter_partition.hpp"
#include "dist/remap.hpp"
#include "rt/collectives.hpp"
#include "workload/mesh.hpp"
#include "workload/rng.hpp"

namespace rt = chaos::rt;
namespace dist = chaos::dist;
namespace core = chaos::core;
namespace wl = chaos::wl;
using chaos::i64;
using chaos::u64;

namespace {

constexpr int kProcs[] = {1, 2, 3, 5, 8};

/// Order-sensitive 64-bit digest.
struct Digest {
  u64 h = 0x243f6a8885a308d3ull;
  void add(u64 v) { h = wl::splitmix64(h ^ v); }
  void add(i64 v) { add(static_cast<u64>(v)); }
  void add_all(std::span<const i64> vs) {
    add(static_cast<i64>(vs.size()));
    for (const i64 v : vs) add(v);
  }
  void add_entries(std::span<const dist::Entry> es) {
    add(static_cast<i64>(es.size()));
    for (const auto& e : es) {
      add(static_cast<i64>(e.proc));
      add(e.local);
    }
  }
};

u64 stats_digest(const rt::MessageStats& s) {
  Digest d;
  for (const i64 v :
       {s.messages_sent, s.bytes_sent, s.messages_received, s.bytes_received,
        s.collectives, s.barriers, s.alltoallv_calls, s.alltoallv_bytes,
        s.tcache_hits, s.tcache_misses, s.ttable_flat_calls,
        s.ttable_flat_wire_queries, s.faults_injected, s.timeouts,
        s.poisoned_waits, s.checkpoint_captures, s.checkpoint_bytes,
        s.restored_segments, s.restored_bytes, s.schedule_repairs,
        s.repair_fallbacks}) {
    d.add(v);
  }
  return d.h;
}

/// What one rank left behind at the end of a scenario.
struct RankRecord {
  u64 clock_bits = 0;
  u64 stats = 0;
  u64 result = 0;
};

struct Golden {
  const char* scenario;
  int procs;
  std::vector<RankRecord> ranks;
};

using Body = std::function<u64(rt::Process&)>;

std::vector<RankRecord> run_scenario(int procs, const Body& body) {
  std::vector<RankRecord> out(static_cast<std::size_t>(procs));
  rt::Machine::run(procs, [&](rt::Process& p) {
    const u64 result = body(p);
    out[static_cast<std::size_t>(p.rank())] = RankRecord{
        std::bit_cast<u64>(p.clock().now_us()), stats_digest(p.stats()),
        result};
  });
  return out;
}

/// Seeded owner map: a hash of the global picks the process, skewed so
/// ranks own unequal shares.
i64 owner_for(i64 g, int procs, u64 seed) {
  const u64 h = wl::splitmix64(static_cast<u64>(g) * 0x9e37u + seed);
  const i64 r = static_cast<i64>(h % static_cast<u64>(procs * procs));
  return static_cast<i64>(std::sqrt(static_cast<double>(r)));
}

std::shared_ptr<const dist::Distribution> irregular_over(
    rt::Process& p, const dist::Distribution& from, u64 seed, i64 page_size,
    bool replicated = false) {
  std::vector<i64> map(static_cast<std::size_t>(from.my_local_size()));
  for (std::size_t l = 0; l < map.size(); ++l) {
    map[l] = owner_for(from.my_global_of(static_cast<i64>(l)), p.nprocs(),
                       seed);
  }
  return dist::Distribution::irregular_from_map(p, map, from, page_size,
                                                replicated);
}

std::vector<i64> slice(const dist::Distribution& d,
                       const std::vector<i64>& global) {
  std::vector<i64> out(static_cast<std::size_t>(d.my_local_size()));
  for (std::size_t l = 0; l < out.size(); ++l) {
    out[l] = global[static_cast<std::size_t>(
        d.my_global_of(static_cast<i64>(l)))];
  }
  return out;
}

/// partition_iterations -> apply_remap x2 -> localize_many, the no-reuse
/// rebuild of an edge loop, over an IRREGULAR node distribution.
u64 pipeline(rt::Process& p) {
  static const wl::Mesh mesh = wl::make_tet_mesh(7, 6, 5, 4242);
  const auto nodes = dist::Distribution::block(p, mesh.nnodes);
  const auto data = irregular_over(p, *nodes, 11, 16);
  const auto edges = dist::Distribution::block(p, mesh.nedges);
  const auto e1 = slice(*edges, mesh.edge1);
  const auto e2 = slice(*edges, mesh.edge2);
  const std::span<const i64> batches[] = {e1, e2};
  const auto iters = core::partition_iterations(
      p, *edges, *data, batches, core::IterRule::MostLocalReferences, 32);
  const auto end1 = dist::apply_remap<i64>(p, iters.remap, e1);
  const auto end2 = dist::apply_remap<i64>(p, iters.remap, e2);
  const std::span<const i64> remapped[] = {end1, end2};
  core::InspectorWorkspace ws;
  core::LocalizedMany loc;
  core::localize_many(p, *data, remapped, ws, loc);

  Digest d;
  d.add(iters.moved_iterations);
  d.add(iters.remap.moved_elements);
  d.add_all(iters.iter_dist->my_globals());
  d.add_all(end1);
  d.add_all(end2);
  for (const auto& r : loc.refs) d.add_all(r);
  d.add_all(loc.schedule.send_indices);
  d.add_all(loc.schedule.send_offsets);
  d.add_all(loc.schedule.recv_offsets);
  d.add(loc.off_process_refs);
  return d.h;
}

/// irregular_from_map from a source of the given kind, then build_remap
/// both ways and one apply_remap of the globals.
u64 remap_from(rt::Process& p, const std::string& kind) {
  constexpr i64 n = 203;
  std::shared_ptr<const dist::Distribution> src;
  if (kind == "BLOCK") {
    src = dist::Distribution::block(p, n);
  } else if (kind == "CYCLIC") {
    src = dist::Distribution::cyclic(p, n);
  } else if (kind == "BLOCK_CYCLIC3") {
    src = dist::Distribution::block_cyclic(p, n, 3);
  } else {
    const auto block = dist::Distribution::block(p, n);
    src = irregular_over(p, *block, 5, 8);
  }
  const auto target = irregular_over(p, *src, 23, 8);
  const auto forward = dist::build_remap(p, *src, *target);
  const auto back = dist::build_remap(p, *target, *src);
  const auto src_globals = src->my_globals();
  const auto moved = dist::apply_remap<i64>(p, forward, src_globals);

  Digest d;
  d.add_all(target->my_globals());
  d.add_all(moved);
  d.add(forward.moved_elements);
  d.add(back.moved_elements);
  return d.h;
}

/// A paged or replicated dereference: seeded random queries with
/// duplicates, then the ascending, distinct queries build_remap makes.
u64 dereference(rt::Process& p, bool replicated) {
  constexpr i64 n = 300;
  const auto block = dist::Distribution::block(p, n);
  const auto d = irregular_over(p, *block, 31, 8, replicated);
  const dist::TranslationTable& table = *d->table();
  wl::Rng rng(1000 + static_cast<u64>(p.rank()));
  std::vector<i64> random(static_cast<std::size_t>(40 + 7 * p.rank()));
  for (auto& q : random) q = rng.below(n);
  const auto a = table.dereference(p, random);
  std::vector<i64> ascending;
  for (i64 g = p.rank(); g < n; g += 3) ascending.push_back(g);
  const auto b = table.dereference(p, ascending, 5);

  Digest dg;
  dg.add_entries(a);
  dg.add_entries(b);
  dg.add(table.stats().wire_queries);
  dg.add(table.stats().remote_queries);
  dg.add(table.stats().alltoallv_rounds);
  return dg.h;
}

const std::vector<std::pair<const char*, Body>>& scenarios() {
  static const std::vector<std::pair<const char*, Body>> all = {
      {"pipeline", pipeline},
      {"remap_block", [](rt::Process& p) { return remap_from(p, "BLOCK"); }},
      {"remap_cyclic", [](rt::Process& p) { return remap_from(p, "CYCLIC"); }},
      {"remap_block_cyclic3",
       [](rt::Process& p) { return remap_from(p, "BLOCK_CYCLIC3"); }},
      {"remap_irregular",
       [](rt::Process& p) { return remap_from(p, "IRREGULAR"); }},
      {"deref_paged", [](rt::Process& p) { return dereference(p, false); }},
      {"deref_replicated",
       [](rt::Process& p) { return dereference(p, true); }},
  };
  return all;
}

// clang-format off
const std::vector<Golden>& golden() {
  static const std::vector<Golden> table = {
#include "integration_golden_clock.inc"
  };
  return table;
}
// clang-format on

}  // namespace

TEST(GoldenClock, RebuildPathIsBitIdenticalToTheRecording) {
  if (std::getenv("CHAOS_GOLDEN_RECORD") != nullptr) {
    for (const auto& [name, body] : scenarios()) {
      for (const int procs : kProcs) {
        std::printf("{\"%s\", %d, {", name, procs);
        for (const auto& r : run_scenario(procs, body)) {
          std::printf("{0x%016llxull, 0x%016llxull, 0x%016llxull},",
                      static_cast<unsigned long long>(r.clock_bits),
                      static_cast<unsigned long long>(r.stats),
                      static_cast<unsigned long long>(r.result));
        }
        std::printf("}},\n");
      }
    }
    GTEST_SKIP() << "recording mode: printed the golden table";
  }
  std::size_t checked = 0;
  for (const auto& [name, body] : scenarios()) {
    for (const int procs : kProcs) {
      const Golden* want = nullptr;
      for (const auto& g : golden()) {
        if (name == std::string(g.scenario) && g.procs == procs) want = &g;
      }
      ASSERT_NE(want, nullptr) << name << " P=" << procs << " not recorded";
      const auto got = run_scenario(procs, body);
      ASSERT_EQ(got.size(), want->ranks.size());
      for (std::size_t r = 0; r < got.size(); ++r) {
        EXPECT_EQ(got[r].clock_bits, want->ranks[r].clock_bits)
            << name << " P=" << procs << " rank " << r << ": clock "
            << std::bit_cast<double>(got[r].clock_bits) << " us, recorded "
            << std::bit_cast<double>(want->ranks[r].clock_bits) << " us";
        EXPECT_EQ(got[r].stats, want->ranks[r].stats)
            << name << " P=" << procs << " rank " << r << ": MessageStats";
        EXPECT_EQ(got[r].result, want->ranks[r].result)
            << name << " P=" << procs << " rank " << r << ": results";
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, golden().size());
}
