/**
 * @file
 * BFS — breadth-first search, Kernel (8 basic blocks) and Kernel2 (3
 * basic blocks) from Table 2 (Graph Algorithms). Kernel expands the
 * frontier: every masked node walks its CSR edge list and relaxes
 * unvisited neighbours; Kernel2 commits the updating mask. The frontier
 * test and the per-node degree variation make this the classic
 * control-divergent workload.
 *
 * The generated graph is a layered tree (plus back edges to visited
 * nodes), so each relaxed neighbour has exactly one frontier parent and
 * the kernel is free of write-write races.
 */

#include "workloads/workloads.hh"

#include <vector>

#include "common/rng.hh"
#include "ir/builder.hh"
#include "workloads/workload_util.hh"

namespace vgiw::workloads
{

namespace
{

constexpr int kNodes = 2048;
constexpr int kCtaSize = 256;

/** CSR graph plus BFS state arrays. */
struct BfsSetup
{
    std::vector<int32_t> starts;   // kNodes + 1
    std::vector<int32_t> edges;
    std::vector<int32_t> mask;     // frontier
    std::vector<int32_t> updating;
    std::vector<int32_t> visited;
    std::vector<int32_t> cost;
};

/**
 * Build a layered graph: level 0 is node 0 (visited), level 1 is the
 * current frontier, level 2 is unvisited. Frontier nodes have 1..6
 * children in level 2 (each child exactly one parent) plus back edges to
 * visited nodes that the kernel's `visited` test skips.
 */
BfsSetup
buildGraph(Rng &rng)
{
    BfsSetup s;
    const int level1 = kNodes / 8;
    const int level2_base = 1 + level1;

    s.mask.assign(kNodes, 0);
    s.updating.assign(kNodes, 0);
    s.visited.assign(kNodes, 0);
    s.cost.assign(kNodes, -1);
    s.visited[0] = 1;
    s.cost[0] = 0;
    for (int i = 1; i <= level1; ++i) {
        s.mask[size_t(i)] = 1;
        s.visited[size_t(i)] = 1;
        s.cost[size_t(i)] = 1;
    }

    s.starts.push_back(0);
    int next_child = level2_base;
    for (int n = 0; n < kNodes; ++n) {
        if (n >= 1 && n <= level1) {
            const int degree = 1 + int(rng.nextUInt(6));
            for (int d = 0; d < degree && next_child < kNodes; ++d)
                s.edges.push_back(next_child++);
            // Back edge to the source: skipped by the visited test.
            s.edges.push_back(0);
        } else if (n == 0) {
            for (int i = 1; i <= level1; ++i)
                s.edges.push_back(i);
        }
        s.starts.push_back(int32_t(s.edges.size()));
    }
    return s;
}

Kernel
buildKernel1()
{
    // Params: 0 starts, 1 edges, 2 mask, 3 updating, 4 visited,
    //         5 cost, 6 n.
    KernelBuilder kb("Kernel", 7);
    const uint16_t lv_i = kb.newLiveValue();
    const uint16_t lv_end = kb.newLiveValue();
    const uint16_t lv_cost1 = kb.newLiveValue();
    const uint16_t lv_nb = kb.newLiveValue();

    BlockRef guard = kb.block("guard_n");
    BlockRef mtest = kb.block("mask_test");
    BlockRef init = kb.block("init");
    BlockRef head = kb.block("edge_loop_head");
    BlockRef body = kb.block("edge_body");
    BlockRef relax = kb.block("relax");
    BlockRef inc = kb.block("edge_inc");
    BlockRef done = kb.block("done");

    Operand tid = Operand::special(SpecialReg::Tid);
    guard.branch(guard.ilt(tid, Operand::param(6)), mtest, done);

    {
        Operand m = mtest.load(Type::I32,
                               mtest.elemAddr(Operand::param(2), tid));
        mtest.branch(m, init, done);
    }
    {
        // mask[tid] = 0; i = starts[tid]; end = starts[tid+1];
        // my_cost_plus_1 = cost[tid] + 1
        init.store(Type::I32, init.elemAddr(Operand::param(2), tid),
                   Operand::constI32(0));
        Operand st = init.load(Type::I32,
                               init.elemAddr(Operand::param(0), tid));
        Operand en = init.load(
            Type::I32,
            init.elemAddr(Operand::param(0),
                          init.iadd(tid, Operand::constI32(1))));
        Operand c = init.load(Type::I32,
                              init.elemAddr(Operand::param(5), tid));
        init.out(lv_i, st);
        init.out(lv_end, en);
        init.out(lv_cost1, init.iadd(c, Operand::constI32(1)));
        init.jump(head);
    }
    {
        head.branch(head.ilt(head.in(lv_i), head.in(lv_end)), body, done);
    }
    {
        // nb = edges[i]; if (!visited[nb]) relax
        Operand nb = body.load(
            Type::I32, body.elemAddr(Operand::param(1), body.in(lv_i)));
        body.out(lv_nb, nb);
        Operand vis = body.load(Type::I32,
                                body.elemAddr(Operand::param(4), nb));
        body.branch(body.ieq(vis, Operand::constI32(0)), relax, inc);
    }
    {
        // cost[nb] = my_cost + 1; updating[nb] = 1
        relax.store(Type::I32,
                    relax.elemAddr(Operand::param(5), relax.in(lv_nb)),
                    relax.in(lv_cost1));
        relax.store(Type::I32,
                    relax.elemAddr(Operand::param(3), relax.in(lv_nb)),
                    Operand::constI32(1));
        relax.jump(inc);
    }
    {
        inc.out(lv_i, inc.iadd(inc.in(lv_i), Operand::constI32(1)));
        inc.jump(head);
    }
    done.exit();
    return kb.finish();
}

Kernel
buildKernel2()
{
    // Params: 0 mask, 1 updating, 2 visited, 3 over flag, 4 n.
    KernelBuilder kb("Kernel2", 5);
    BlockRef guard = kb.block("guard");
    BlockRef utest = kb.block("updating_test");
    BlockRef commit = kb.block("commit");
    BlockRef done = kb.block("done");

    Operand tid = Operand::special(SpecialReg::Tid);
    guard.branch(guard.ilt(tid, Operand::param(4)), utest, done);
    {
        Operand u = utest.load(Type::I32,
                               utest.elemAddr(Operand::param(1), tid));
        utest.branch(u, commit, done);
    }
    {
        commit.store(Type::I32, commit.elemAddr(Operand::param(0), tid),
                     Operand::constI32(1));
        commit.store(Type::I32, commit.elemAddr(Operand::param(2), tid),
                     Operand::constI32(1));
        commit.store(Type::I32,
                     commit.elemAddr(Operand::param(3),
                                     Operand::constI32(0)),
                     Operand::constI32(1));
        commit.store(Type::I32, commit.elemAddr(Operand::param(1), tid),
                     Operand::constI32(0));
        commit.exit();
    }
    done.exit();
    return kb.finish();
}

/** Lay the BFS state out in a memory image. */
struct BfsImage
{
    MemoryImage mem;
    uint32_t starts, edges, mask, updating, visited, cost, over;
};

BfsImage
layout(const BfsSetup &s)
{
    BfsImage im;
    im.starts = im.mem.allocWords(uint32_t(s.starts.size()));
    im.edges = im.mem.allocWords(uint32_t(s.edges.size()));
    im.mask = im.mem.allocWords(kNodes);
    im.updating = im.mem.allocWords(kNodes);
    im.visited = im.mem.allocWords(kNodes);
    im.cost = im.mem.allocWords(kNodes);
    im.over = im.mem.allocWords(4);
    for (size_t i = 0; i < s.starts.size(); ++i)
        im.mem.storeI32(im.starts, uint32_t(i), s.starts[i]);
    for (size_t i = 0; i < s.edges.size(); ++i)
        im.mem.storeI32(im.edges, uint32_t(i), s.edges[i]);
    for (int i = 0; i < kNodes; ++i) {
        im.mem.storeI32(im.mask, uint32_t(i), s.mask[size_t(i)]);
        im.mem.storeI32(im.updating, uint32_t(i), s.updating[size_t(i)]);
        im.mem.storeI32(im.visited, uint32_t(i), s.visited[size_t(i)]);
        im.mem.storeI32(im.cost, uint32_t(i), s.cost[size_t(i)]);
    }
    return im;
}

/** Native reference of Kernel's frontier expansion. */
void
referenceKernel1(BfsSetup &s)
{
    for (int n = 0; n < kNodes; ++n) {
        if (!s.mask[size_t(n)])
            continue;
        s.mask[size_t(n)] = 0;
        for (int e = s.starts[size_t(n)]; e < s.starts[size_t(n) + 1];
             ++e) {
            const int nb = s.edges[size_t(e)];
            if (!s.visited[size_t(nb)]) {
                s.cost[size_t(nb)] = s.cost[size_t(n)] + 1;
                s.updating[size_t(nb)] = 1;
            }
        }
    }
}

} // namespace

WorkloadInstance
makeBfsKernel()
{
    Rng rng(48);
    BfsSetup s = buildGraph(rng);
    BfsImage im = layout(s);

    WorkloadInstance w;
    w.suite = "BFS";
    w.domain = "Graph Algorithms";
    w.kernel = buildKernel1();
    w.memory = im.mem;
    w.launch.numCtas = kNodes / kCtaSize;
    w.launch.ctaSize = kCtaSize;
    w.launch.params = {Scalar::fromU32(im.starts), Scalar::fromU32(im.edges),
                       Scalar::fromU32(im.mask),
                       Scalar::fromU32(im.updating),
                       Scalar::fromU32(im.visited), Scalar::fromU32(im.cost),
                       Scalar::fromI32(kNodes)};

    w.check = [s, im](const MemoryImage &mem, std::string &err) mutable {
        referenceKernel1(s);
        return checkI32(mem, im.cost, s.cost, err) &&
               checkI32(mem, im.updating, s.updating, err) &&
               checkI32(mem, im.mask, s.mask, err);
    };
    return w;
}

WorkloadInstance
makeBfsKernel2()
{
    Rng rng(48);
    BfsSetup s = buildGraph(rng);
    referenceKernel1(s);  // Kernel2 runs on Kernel's output state
    BfsImage im = layout(s);

    WorkloadInstance w;
    w.suite = "BFS";
    w.domain = "Graph Algorithms";
    w.kernel = buildKernel2();
    w.memory = im.mem;
    w.launch.numCtas = kNodes / kCtaSize;
    w.launch.ctaSize = kCtaSize;
    w.launch.params = {Scalar::fromU32(im.mask),
                       Scalar::fromU32(im.updating),
                       Scalar::fromU32(im.visited),
                       Scalar::fromU32(im.over), Scalar::fromI32(kNodes)};

    w.check = [s, im](const MemoryImage &mem, std::string &err) {
        std::vector<int32_t> emask = s.mask, evis = s.visited,
                             eupd = s.updating;
        bool any = false;
        for (int i = 0; i < kNodes; ++i) {
            if (eupd[size_t(i)]) {
                emask[size_t(i)] = 1;
                evis[size_t(i)] = 1;
                eupd[size_t(i)] = 0;
                any = true;
            }
        }
        if (any && mem.loadI32(im.over, 0) != 1) {
            err = "over flag not set";
            return false;
        }
        return checkI32(mem, im.mask, emask, err) &&
               checkI32(mem, im.visited, evis, err) &&
               checkI32(mem, im.updating, eupd, err);
    };
    return w;
}

} // namespace vgiw::workloads
