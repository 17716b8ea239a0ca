// Mapper coupler: SET ... BY PARTITIONING semantics, REDISTRIBUTE alignment
// rules, the identity short-circuit, and custom partitioner plumbing.
#include <gtest/gtest.h>

#include <vector>

#include "core/mapper.hpp"
#include "rt/collectives.hpp"
#include "workload/mesh.hpp"

namespace rt = chaos::rt;
namespace dist = chaos::dist;
namespace core = chaos::core;
namespace part = chaos::part;
namespace wl = chaos::wl;
using chaos::f64;
using chaos::i64;

namespace {

std::shared_ptr<const core::GeoCol> tiny_geocol(
    rt::Process& p, const wl::Mesh& mesh,
    std::shared_ptr<const dist::Distribution> vdist) {
  auto edist = dist::Distribution::block(p, mesh.nedges);
  std::vector<i64> e1, e2;
  for (i64 l = 0; l < edist->my_local_size(); ++l) {
    const i64 e = edist->global_of(p.rank(), l);
    e1.push_back(mesh.edge1[static_cast<std::size_t>(e)]);
    e2.push_back(mesh.edge2[static_cast<std::size_t>(e)]);
  }
  core::GeoColBuilder b(p, std::move(vdist));
  b.link(e1, e2);
  return b.build();
}

}  // namespace

TEST(Mapper, SetByPartitioningProducesTheIrregularMap) {
  const auto mesh = wl::mesh_tiny();
  // A deterministic custom partitioner: vertex v -> part (v % nparts).
  // Registered once, before the SPMD region: the registry is shared by
  // every rank thread and is not synchronized.
  part::PartitionerRegistry::instance().add(
      "MOD_TEST",
      [](rt::Process& pp, const part::GeoColView& view, int nparts) {
        (void)pp;
        std::vector<i64> parts(static_cast<std::size_t>(view.nlocal()));
        const auto globals = view.vdist->my_globals();
        for (std::size_t l = 0; l < parts.size(); ++l) {
          parts[l] = globals[l] % nparts;
        }
        return parts;
      });
  rt::Machine::run(4, [&](rt::Process& p) {
    auto reg = dist::Distribution::block(p, mesh.nnodes);
    auto g = tiny_geocol(p, mesh, reg);
    auto d = core::set_by_partitioning(p, *g, "MOD_TEST");
    EXPECT_EQ(d->kind(), dist::DistKind::Irregular);
    EXPECT_EQ(d->size(), mesh.nnodes);
    // Ownership matches the map: vertex v lives on rank v % 4.
    std::vector<i64> all(static_cast<std::size_t>(mesh.nnodes));
    for (i64 v = 0; v < mesh.nnodes; ++v) all[static_cast<std::size_t>(v)] = v;
    auto entries = d->locate(p, all);
    for (i64 v = 0; v < mesh.nnodes; ++v) {
      EXPECT_EQ(entries[static_cast<std::size_t>(v)].proc, v % 4);
    }
  });
}

TEST(Mapper, UnknownPartitionerIsRejected) {
  const auto mesh = wl::mesh_tiny();
  EXPECT_THROW(
      rt::Machine::run(2,
                       [&](rt::Process& p) {
                         auto reg = dist::Distribution::block(p, mesh.nnodes);
                         auto g = tiny_geocol(p, mesh, reg);
                         (void)core::set_by_partitioning(p, *g,
                                                         "DOES_NOT_EXIST");
                       }),
      chaos::ChaosError);
}

TEST(Mapper, RedistributorMovesAllAlignedArraysTogether) {
  const auto mesh = wl::mesh_tiny();
  rt::Machine::run(4, [&](rt::Process& p) {
    auto reg = dist::Distribution::block(p, mesh.nnodes);
    dist::DistributedArray<f64> x(p, reg), y(p, reg);
    dist::DistributedArray<i64> tag(p, reg);
    x.fill_by_global([](i64 g) { return static_cast<f64>(g); });
    y.fill_by_global([](i64 g) { return -static_cast<f64>(g); });
    tag.fill_by_global([](i64 g) { return g * 3; });

    auto g = tiny_geocol(p, mesh, reg);
    core::ReuseRegistry registry;
    const auto nmod0 = registry.nmod();
    auto d = core::set_by_partitioning(p, *g, "RSB");
    core::Redistributor rd(&registry);
    rd.add(x).add(y).add(tag);
    rd.apply(p, d);

    EXPECT_TRUE(x.dad() == d->dad());
    EXPECT_TRUE(tag.dad() == d->dad());
    EXPECT_GT(registry.nmod(), nmod0);  // remap recorded

    const auto gx = x.to_global(p);
    const auto gt = tag.to_global(p);
    for (i64 v = 0; v < mesh.nnodes; ++v) {
      EXPECT_DOUBLE_EQ(gx[static_cast<std::size_t>(v)], static_cast<f64>(v));
      EXPECT_EQ(gt[static_cast<std::size_t>(v)], v * 3);
    }
  });
}

TEST(Mapper, IdentityRedistributeIsANoOpAndPreservesReuse) {
  const auto mesh = wl::mesh_tiny();
  rt::Machine::run(4, [&](rt::Process& p) {
    auto reg = dist::Distribution::block(p, mesh.nnodes);
    dist::DistributedArray<f64> x(p, reg);
    auto g = tiny_geocol(p, mesh, reg);
    core::ReuseRegistry registry;
    auto d = core::set_by_partitioning(p, *g, "RSB");
    {
      core::Redistributor rd(&registry);
      rd.add(x);
      rd.apply(p, d);
    }
    const auto nmod_after_first = registry.nmod();
    const auto dad_after_first = x.dad();
    {
      // Same target again: must not bump nmod nor change the DAD — a loop
      // that re-runs SET+REDISTRIBUTE with unchanged inputs stays free.
      core::Redistributor rd(&registry);
      rd.add(x);
      rd.apply(p, d);
    }
    EXPECT_EQ(registry.nmod(), nmod_after_first);
    EXPECT_TRUE(x.dad() == dad_after_first);
  });
}

TEST(Mapper, MisalignedArraysAreRejected) {
  const auto mesh = wl::mesh_tiny();
  EXPECT_THROW(rt::Machine::run(2,
                                [&](rt::Process& p) {
                                  auto reg =
                                      dist::Distribution::block(p, mesh.nnodes);
                                  auto other = dist::Distribution::cyclic(
                                      p, mesh.nnodes);
                                  dist::DistributedArray<f64> a(p, reg);
                                  dist::DistributedArray<f64> b(p, other);
                                  auto g = tiny_geocol(p, mesh, reg);
                                  auto d = core::set_by_partitioning(p, *g,
                                                                     "RSB");
                                  core::Redistributor rd;
                                  rd.add(a).add(b);
                                  rd.apply(p, d);
                                }),
               chaos::ChaosError);
}

TEST(Mapper, EmptyRedistributorIsRejected) {
  rt::Machine::run(2, [](rt::Process& p) {
    auto reg = dist::Distribution::block(p, 8);
    core::Redistributor rd;
    EXPECT_THROW(rd.apply(p, reg), chaos::ChaosError);
    rt::barrier(p);
  });
}
