/**
 * @file
 * CFD — computational fluid dynamics solver kernels (Table 2: Fluid
 * Dynamics): initialize_variables (1 block), compute_step_factor (2),
 * time_step (1) and compute_flux (12). initialize_variables and
 * time_step are the pure data-movement kernels for which the paper
 * reports VGIW slowdowns (the CFD3 discussion in Section 5);
 * compute_step_factor and compute_flux are FP/SCU heavy, the latter with
 * a three-way boundary-condition branch in its neighbour loop.
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

constexpr int kNelr = 2048;     ///< elements
constexpr int kCtaSize = 256;
constexpr int kVars = 5;        ///< density, momentum xyz, energy
constexpr int kNeighbors = 4;
constexpr float kGamma = 1.4f;

uint32_t varIdx(int var, int i) { return uint32_t(var * kNelr + i); }

Kernel
buildInitializeVariables()
{
    // Params: 0 = variables, 1 = ff_variable (5 far-field values).
    KernelBuilder kb("initialize_variables", 2);
    BlockRef b = kb.block("body");
    Operand tid = Operand::special(SpecialReg::Tid);
    for (int v = 0; v < kVars; ++v) {
        Operand ff = b.load(
            Type::F32,
            b.elemAddr(Operand::param(1), Operand::constI32(v)));
        Operand dst = b.iadd(Operand::constI32(v * kNelr), tid);
        b.store(Type::F32, b.elemAddr(Operand::param(0), dst), ff);
    }
    b.exit();
    return kb.finish();
}

Kernel
buildComputeStepFactor()
{
    // Params: 0 = variables, 1 = areas, 2 = step_factor.
    KernelBuilder kb("compute_step_factor", 3);
    BlockRef b = kb.block("body");
    Operand tid = Operand::special(SpecialReg::Tid);

    auto var = [&](int v) {
        Operand idx = b.iadd(Operand::constI32(v * kNelr), tid);
        return b.load(Type::F32, b.elemAddr(Operand::param(0), idx));
    };
    Operand density = var(0);
    Operand mx = var(1), my = var(2), mz = var(3);
    Operand energy = var(4);

    Operand m2 = b.fadd(b.fadd(b.fmul(mx, mx), b.fmul(my, my)),
                        b.fmul(mz, mz));
    Operand speed_sqd = b.fdiv(m2, b.fmul(density, density));
    // pressure = (gamma-1) * (energy - 0.5*density*speed_sqd)
    Operand half_rho_v2 = b.fmul(Operand::constF32(0.5f),
                                 b.fmul(density, speed_sqd));
    Operand pressure = b.fmul(Operand::constF32(kGamma - 1.0f),
                              b.fsub(energy, half_rho_v2));
    Operand c = b.fsqrt(
        b.fdiv(b.fmul(Operand::constF32(kGamma), pressure), density));
    Operand area = b.load(Type::F32, b.elemAddr(Operand::param(1), tid));
    Operand denom = b.fmul(b.fsqrt(area),
                           b.fadd(b.fsqrt(speed_sqd), c));
    b.store(Type::F32, b.elemAddr(Operand::param(2), tid),
            b.fdiv(Operand::constF32(0.5f), denom));
    b.exit();
    return kb.finish();
}

Kernel
buildTimeStep()
{
    // Params: 0 = variables, 1 = old_variables, 2 = fluxes,
    //         3 = step_factor.
    KernelBuilder kb("time_step", 4);
    BlockRef b = kb.block("body");
    Operand tid = Operand::special(SpecialReg::Tid);
    Operand factor = b.load(Type::F32,
                            b.elemAddr(Operand::param(3), tid));
    for (int v = 0; v < kVars; ++v) {
        Operand idx = b.iadd(Operand::constI32(v * kNelr), tid);
        Operand old = b.load(Type::F32,
                             b.elemAddr(Operand::param(1), idx));
        Operand fl = b.load(Type::F32, b.elemAddr(Operand::param(2), idx));
        b.store(Type::F32, b.elemAddr(Operand::param(0), idx),
                b.fadd(old, b.fmul(factor, fl)));
    }
    b.exit();
    return kb.finish();
}

Kernel
buildComputeFlux()
{
    // Params: 0 = elements_surrounding (nelr x 4), 1 = normal weights
    //         (nelr x 4), 2 = variables, 3 = fluxes, 4 = ff_variable.
    // Neighbour encoding: >= 0 interior, -1 wall, -2 far field.
    KernelBuilder kb("compute_flux", 5);
    const uint16_t lv_j = kb.newLiveValue();
    const uint16_t lv_acc_d = kb.newLiveValue();  // density flux
    const uint16_t lv_acc_m = kb.newLiveValue();  // momentum-x flux
    const uint16_t lv_acc_e = kb.newLiveValue();  // energy flux
    const uint16_t lv_rho = kb.newLiveValue();    // own density
    const uint16_t lv_mx = kb.newLiveValue();     // own momentum-x
    const uint16_t lv_en = kb.newLiveValue();     // own energy
    const uint16_t lv_w = kb.newLiveValue();
    const uint16_t lv_nb = kb.newLiveValue();

    BlockRef init = kb.block("init");
    BlockRef head = kb.block("nb_loop_head");
    BlockRef body = kb.block("nb_body");
    BlockRef interior = kb.block("interior");
    BlockRef btest = kb.block("boundary_test");
    BlockRef wall = kb.block("wall");
    BlockRef farfield = kb.block("far_field");
    BlockRef inc = kb.block("nb_inc");
    BlockRef writeback = kb.block("writeback");

    Operand tid = Operand::special(SpecialReg::Tid);
    auto var_at = [&](BlockRef b, int v, Operand i) {
        Operand idx = b.iadd(Operand::constI32(v * kNelr), i);
        return b.load(Type::F32, b.elemAddr(Operand::param(2), idx));
    };
    {
        // Own state seeds the three flux accumulators.
        init.out(lv_rho, var_at(init, 0, tid));
        init.out(lv_mx, var_at(init, 1, tid));
        init.out(lv_en, var_at(init, 4, tid));
        init.out(lv_acc_d, Operand::constF32(0.0f));
        init.out(lv_acc_m, Operand::constF32(0.0f));
        init.out(lv_acc_e, Operand::constF32(0.0f));
        init.out(lv_j, Operand::constI32(0));
        init.jump(head);
    }
    {
        head.branch(head.ilt(head.in(lv_j),
                             Operand::constI32(kNeighbors)),
                    body, writeback);
    }
    {
        // nb = elements_surrounding[tid + j*nelr], w = normals[...]
        Operand off = body.iadd(
            body.imul(body.in(lv_j), Operand::constI32(kNelr)), tid);
        Operand nb = body.load(Type::I32,
                               body.elemAddr(Operand::param(0), off));
        Operand wgt = body.load(Type::F32,
                                body.elemAddr(Operand::param(1), off));
        body.out(lv_nb, nb);
        body.out(lv_w, wgt);
        body.branch(body.ige(nb, Operand::constI32(0)), interior, btest);
    }
    {
        // Interior: upwinded differences for density, momentum and
        // energy, plus a pressure-like coupling term (a simplified
        // analogue of Rodinia's compute_flux_contribution).
        BlockRef b = interior;
        Operand w = b.in(lv_w);
        Operand rho_nb = var_at(b, 0, b.in(lv_nb));
        Operand mx_nb = var_at(b, 1, b.in(lv_nb));
        Operand en_nb = var_at(b, 4, b.in(lv_nb));
        Operand d_d = b.fsub(rho_nb, b.in(lv_rho));
        Operand d_m = b.fsub(mx_nb, b.in(lv_mx));
        Operand d_e = b.fsub(en_nb, b.in(lv_en));
        // pressure-like coupling: p ~ 0.4 * (e - 0.5*m^2/rho)
        Operand m2 = b.fmul(mx_nb, mx_nb);
        Operand ke = b.fmul(Operand::constF32(0.5f),
                            b.fdiv(m2, rho_nb));
        Operand pnb = b.fmul(Operand::constF32(kGamma - 1.0f),
                             b.fsub(en_nb, ke));
        b.out(lv_acc_d, b.fadd(b.in(lv_acc_d), b.fmul(w, d_d)));
        b.out(lv_acc_m,
              b.fadd(b.in(lv_acc_m),
                     b.fadd(b.fmul(w, d_m), b.fmul(w, pnb))));
        b.out(lv_acc_e, b.fadd(b.in(lv_acc_e), b.fmul(w, d_e)));
        b.jump(inc);
    }
    {
        btest.branch(btest.ieq(btest.in(lv_nb), Operand::constI32(-1)),
                     wall, farfield);
    }
    {
        // Wall: reflective boundary — momentum flips, density and
        // energy see a mirrored state.
        BlockRef b = wall;
        Operand w = b.in(lv_w);
        b.out(lv_acc_d,
              b.fadd(b.in(lv_acc_d),
                     b.fmul(b.fmul(Operand::constF32(-2.0f), w),
                            b.in(lv_rho))));
        b.out(lv_acc_m,
              b.fadd(b.in(lv_acc_m),
                     b.fmul(b.fmul(Operand::constF32(-2.0f), w),
                            b.in(lv_mx))));
        b.jump(inc);
    }
    {
        // Far field: free-stream differences against ff_variable.
        BlockRef b = farfield;
        Operand w = b.in(lv_w);
        auto ff = [&](int v) {
            return b.load(Type::F32,
                          b.elemAddr(Operand::param(4),
                                     Operand::constI32(v)));
        };
        b.out(lv_acc_d,
              b.fadd(b.in(lv_acc_d),
                     b.fmul(w, b.fsub(ff(0), b.in(lv_rho)))));
        b.out(lv_acc_m,
              b.fadd(b.in(lv_acc_m),
                     b.fmul(w, b.fsub(ff(1), b.in(lv_mx)))));
        b.out(lv_acc_e,
              b.fadd(b.in(lv_acc_e),
                     b.fmul(w, b.fsub(ff(4), b.in(lv_en)))));
        b.jump(inc);
    }
    {
        inc.out(lv_j, inc.iadd(inc.in(lv_j), Operand::constI32(1)));
        inc.jump(head);
    }
    {
        BlockRef b = writeback;
        auto store_flux = [&](int v, uint16_t lv) {
            Operand idx = b.iadd(Operand::constI32(v * kNelr), tid);
            b.store(Type::F32, b.elemAddr(Operand::param(3), idx),
                    b.in(lv));
        };
        store_flux(0, lv_acc_d);
        store_flux(1, lv_acc_m);
        store_flux(4, lv_acc_e);
        b.exit();
    }
    return kb.finish();
}

struct CfdArrays
{
    MemoryImage mem;
    uint32_t variables, old_variables, fluxes, step_factor, areas,
        ff_variable, surrounding, normals;
};

CfdArrays
layoutCfd(Rng &rng)
{
    CfdArrays a;
    a.variables = a.mem.allocWords(kVars * kNelr);
    a.old_variables = a.mem.allocWords(kVars * kNelr);
    a.fluxes = a.mem.allocWords(kVars * kNelr);
    a.step_factor = a.mem.allocWords(kNelr);
    a.areas = a.mem.allocWords(kNelr);
    a.ff_variable = a.mem.allocWords(kVars);
    a.surrounding = a.mem.allocWords(kNeighbors * kNelr);
    a.normals = a.mem.allocWords(kNeighbors * kNelr);

    // Density and energy stay O(1); momentum is kept small so the
    // derived pressure is always positive (no NaN sound speeds).
    fillF32(a.mem, a.variables, kNelr, rng, 0.8f, 2.0f);
    fillF32(a.mem, a.variables + 4 * kNelr, 3 * kNelr, rng, 0.05f, 0.3f);
    fillF32(a.mem, a.variables + 16 * kNelr, kNelr, rng, 1.5f, 3.0f);
    fillF32(a.mem, a.old_variables, kVars * kNelr, rng, 0.8f, 2.0f);
    fillF32(a.mem, a.fluxes, kVars * kNelr, rng, -0.5f, 0.5f);
    fillF32(a.mem, a.step_factor, kNelr, rng, 0.001f, 0.01f);
    fillF32(a.mem, a.areas, kNelr, rng, 0.5f, 2.0f);
    for (int v = 0; v < kVars; ++v)
        a.mem.storeF32(a.ff_variable, uint32_t(v), 1.0f + 0.1f * float(v));
    // Neighbours: mostly interior, ~10% wall, ~10% far field.
    for (int i = 0; i < kNeighbors * kNelr; ++i) {
        const uint32_t r = rng.nextUInt(10);
        int32_t nb;
        if (r < 8)
            nb = int32_t(rng.nextUInt(kNelr));
        else if (r == 8)
            nb = -1;
        else
            nb = -2;
        a.mem.storeI32(a.surrounding, uint32_t(i), nb);
    }
    fillF32(a.mem, a.normals, kNeighbors * kNelr, rng, -1.0f, 1.0f);
    return a;
}

LaunchParams
cfdLaunch(std::vector<Scalar> params)
{
    LaunchParams lp;
    lp.numCtas = kNelr / kCtaSize;
    lp.ctaSize = kCtaSize;
    lp.params = std::move(params);
    return lp;
}

} // namespace

WorkloadInstance
makeCfdInitializeVariables()
{
    Rng rng(49);
    CfdArrays a = layoutCfd(rng);
    WorkloadInstance w;
    w.suite = "CFD";
    w.domain = "Fluid Dynamics";
    w.kernel = buildInitializeVariables();
    w.memory = a.mem;
    w.launch = cfdLaunch({Scalar::fromU32(a.variables),
                          Scalar::fromU32(a.ff_variable)});
    w.check = [a](const MemoryImage &mem, std::string &err) {
        std::vector<float> expect(size_t(kVars) * kNelr);
        for (int v = 0; v < kVars; ++v)
            for (int i = 0; i < kNelr; ++i)
                expect[size_t(varIdx(v, i))] =
                    a.mem.loadF32(a.ff_variable, uint32_t(v));
        return checkF32(mem, a.variables, expect, 0.0f, err);
    };
    return w;
}

WorkloadInstance
makeCfdComputeStepFactor()
{
    Rng rng(50);
    CfdArrays a = layoutCfd(rng);
    WorkloadInstance w;
    w.suite = "CFD";
    w.domain = "Fluid Dynamics";
    w.kernel = buildComputeStepFactor();
    w.memory = a.mem;
    w.launch = cfdLaunch({Scalar::fromU32(a.variables),
                          Scalar::fromU32(a.areas),
                          Scalar::fromU32(a.step_factor)});
    w.check = [a](const MemoryImage &mem, std::string &err) {
        std::vector<float> expect(kNelr);
        for (int i = 0; i < kNelr; ++i) {
            const float density = a.mem.loadF32(a.variables, varIdx(0, i));
            const float mx = a.mem.loadF32(a.variables, varIdx(1, i));
            const float my = a.mem.loadF32(a.variables, varIdx(2, i));
            const float mz = a.mem.loadF32(a.variables, varIdx(3, i));
            const float energy = a.mem.loadF32(a.variables, varIdx(4, i));
            const float m2 = mx * mx + my * my + mz * mz;
            const float speed_sqd = m2 / (density * density);
            const float pressure =
                (kGamma - 1.0f) *
                (energy - 0.5f * (density * speed_sqd));
            const float c =
                std::sqrt(kGamma * pressure / density);
            const float area = a.mem.loadF32(a.areas, uint32_t(i));
            expect[size_t(i)] =
                0.5f /
                (std::sqrt(area) * (std::sqrt(speed_sqd) + c));
        }
        return checkF32(mem, a.step_factor, expect, 1e-4f, err);
    };
    return w;
}

WorkloadInstance
makeCfdTimeStep()
{
    Rng rng(51);
    CfdArrays a = layoutCfd(rng);
    WorkloadInstance w;
    w.suite = "CFD";
    w.domain = "Fluid Dynamics";
    w.kernel = buildTimeStep();
    w.memory = a.mem;
    w.launch = cfdLaunch(
        {Scalar::fromU32(a.variables), Scalar::fromU32(a.old_variables),
         Scalar::fromU32(a.fluxes), Scalar::fromU32(a.step_factor)});
    w.check = [a](const MemoryImage &mem, std::string &err) {
        std::vector<float> expect(size_t(kVars) * kNelr);
        for (int i = 0; i < kNelr; ++i) {
            const float f = a.mem.loadF32(a.step_factor, uint32_t(i));
            for (int v = 0; v < kVars; ++v) {
                expect[size_t(varIdx(v, i))] =
                    a.mem.loadF32(a.old_variables, varIdx(v, i)) +
                    f * a.mem.loadF32(a.fluxes, varIdx(v, i));
            }
        }
        return checkF32(mem, a.variables, expect, 1e-5f, err);
    };
    return w;
}

WorkloadInstance
makeCfdComputeFlux()
{
    Rng rng(52);
    CfdArrays a = layoutCfd(rng);
    WorkloadInstance w;
    w.suite = "CFD";
    w.domain = "Fluid Dynamics";
    w.kernel = buildComputeFlux();
    w.memory = a.mem;
    w.launch = cfdLaunch(
        {Scalar::fromU32(a.surrounding), Scalar::fromU32(a.normals),
         Scalar::fromU32(a.variables), Scalar::fromU32(a.fluxes),
         Scalar::fromU32(a.ff_variable)});
    w.check = [a](const MemoryImage &mem, std::string &err) {
        std::vector<float> ed(kNelr), em(kNelr), ee(kNelr);
        const float ff_d = a.mem.loadF32(a.ff_variable, 0);
        const float ff_m = a.mem.loadF32(a.ff_variable, 1);
        const float ff_e = a.mem.loadF32(a.ff_variable, 4);
        auto var = [&](int v, int i) {
            return a.mem.loadF32(a.variables, varIdx(v, i));
        };
        for (int i = 0; i < kNelr; ++i) {
            const float rho = var(0, i), mx = var(1, i), en = var(4, i);
            float acc_d = 0.0f, acc_m = 0.0f, acc_e = 0.0f;
            for (int j = 0; j < kNeighbors; ++j) {
                const int32_t nb = a.mem.loadI32(
                    a.surrounding, uint32_t(j * kNelr + i));
                const float wv =
                    a.mem.loadF32(a.normals, uint32_t(j * kNelr + i));
                if (nb >= 0) {
                    const float rho_nb = var(0, nb), mx_nb = var(1, nb),
                                en_nb = var(4, nb);
                    const float ke =
                        0.5f * ((mx_nb * mx_nb) / rho_nb);
                    const float pnb =
                        (kGamma - 1.0f) * (en_nb - ke);
                    acc_d = acc_d + wv * (rho_nb - rho);
                    acc_m = acc_m +
                            (wv * (mx_nb - mx) + wv * pnb);
                    acc_e = acc_e + wv * (en_nb - en);
                } else if (nb == -1) {
                    acc_d = acc_d + (-2.0f * wv) * rho;
                    acc_m = acc_m + (-2.0f * wv) * mx;
                } else {
                    acc_d = acc_d + wv * (ff_d - rho);
                    acc_m = acc_m + wv * (ff_m - mx);
                    acc_e = acc_e + wv * (ff_e - en);
                }
            }
            ed[size_t(i)] = acc_d;
            em[size_t(i)] = acc_m;
            ee[size_t(i)] = acc_e;
        }
        auto slice_ok = [&](int v, const std::vector<float> &e) {
            for (int i = 0; i < kNelr; ++i) {
                const float got = mem.loadF32(a.fluxes, varIdx(v, i));
                const float want = e[size_t(i)];
                const float mag = std::max(std::fabs(want), 1.0f);
                if (std::fabs(got - want) > 1e-4f * mag) {
                    err = "flux mismatch var " + std::to_string(v) +
                          " elem " + std::to_string(i);
                    return false;
                }
            }
            return true;
        };
        return slice_ok(0, ed) && slice_ok(1, em) && slice_ok(4, ee);
    };
    return w;
}

} // namespace vgiw::workloads
