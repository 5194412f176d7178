#include "sim/density_matrix.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "noise/noise_model.hpp"
#include "vqa/fault.hpp"

namespace eftvqa {

namespace {

/** Widest register the dense density operator supports. */
constexpr size_t kMaxDensityMatrixQubits = 13;

/** Validate the register width before the 4^n array allocates. */
size_t
checkedDensityMatrixSize(size_t n_qubits)
{
    if (n_qubits > kMaxDensityMatrixQubits)
        throw std::invalid_argument(
            "DensityMatrix: register too wide (requested " +
            std::to_string(n_qubits) + " qubits, max " +
            std::to_string(kMaxDensityMatrixQubits) + ")");
    return size_t{1} << (2 * n_qubits);
}

using cd = std::complex<double>;

/** The one-qubit Paulis in PTM order: I, Z, X, Y. */
const Mat2 kPauli[4] = {
    Mat2{1.0, 0.0, 0.0, 1.0},
    Mat2{1.0, 0.0, 0.0, -1.0},
    Mat2{0.0, 1.0, 1.0, 0.0},
    Mat2{0.0, cd{0.0, -1.0}, cd{0.0, 1.0}, 0.0},
};

} // namespace

PairPerm
pairPerm(GateType t)
{
    switch (t) {
      case GateType::CX: return PairPerm::CX;
      case GateType::CZ: return PairPerm::CZ;
      case GateType::Swap: return PairPerm::Swap;
      default: return PairPerm::None;
    }
}

PauliImage
pairPauliImage(PairPerm perm, int k)
{
    int xa = (k >> 3) & 1, xb = (k >> 2) & 1;
    int za = (k >> 1) & 1, zb = k & 1;
    int sign = 1;
    switch (perm) {
      case PairPerm::None:
        break;
      case PairPerm::CX: // X_a -> X_a X_b, Z_b -> Z_a Z_b
        if (xa & zb & (xb ^ za ^ 1))
            sign = -1;
        xb ^= xa;
        za ^= zb;
        break;
      case PairPerm::CZ: // X_a -> X_a Z_b, X_b -> Z_a X_b
        if (xa & xb & (za ^ zb))
            sign = -1;
        za ^= xb;
        zb ^= xa;
        break;
      case PairPerm::Swap:
        std::swap(xa, xb);
        std::swap(za, zb);
        break;
    }
    return {8 * xa + 4 * xb + 2 * za + zb, sign};
}

namespace superop {

namespace {

Ptm
identity()
{
    Ptm m{};
    m[0] = m[5] = m[10] = m[15] = 1.0;
    return m;
}

} // namespace

Ptm
conjugation(const Mat2 &k)
{
    // R[a][b] = Tr(P_a K P_b K^dag) / 2, real for any K.
    const Mat2 kd = dagger(k);
    Ptm m{};
    for (int b = 0; b < 4; ++b) {
        const Mat2 img = matmul(matmul(k, kPauli[b]), kd);
        for (int a = 0; a < 4; ++a) {
            const Mat2 prod = matmul(kPauli[a], img);
            m[4 * a + b] = 0.5 * (prod[0] + prod[3]).real();
        }
    }
    return m;
}

Ptm
kraus(const KrausChannel &channel)
{
    Ptm m{};
    for (const Mat2 &k : channel.ops) {
        const Ptm c = conjugation(k);
        for (int e = 0; e < 16; ++e)
            m[e] += c[e];
    }
    return m;
}

Ptm
pauli(const PauliChannel &ch)
{
    // Each Pauli flips the sign of the two it anticommutes with.
    Ptm m{};
    m[0] = 1.0;
    m[5] = 1.0 - 2.0 * (ch.px + ch.py);
    m[10] = 1.0 - 2.0 * (ch.py + ch.pz);
    m[15] = 1.0 - 2.0 * (ch.px + ch.pz);
    return m;
}

Ptm
amplitudeDamping(double gamma)
{
    if (gamma < 0.0 || gamma > 1.0)
        throw std::invalid_argument("applyAmplitudeDamping: bad gamma");
    Ptm m{};
    m[0] = 1.0;
    m[4] = gamma; // I feeds Z: the decay pumps toward |0>
    m[5] = 1.0 - gamma;
    m[10] = m[15] = std::sqrt(1.0 - gamma);
    return m;
}

Ptm
phaseDamping(double lambda)
{
    if (lambda < 0.0 || lambda > 1.0)
        throw std::invalid_argument("applyPhaseDamping: bad lambda");
    Ptm m = identity();
    m[10] = m[15] = std::sqrt(1.0 - lambda);
    return m;
}

Ptm
thermalRelaxation(double t1, double t2, double t)
{
    if (t <= 0.0)
        return identity();
    const double gamma = 1.0 - std::exp(-t / t1);
    const double target = std::exp(-t / t2);
    const double sq1mg = std::sqrt(1.0 - gamma);
    double lambda = 0.0;
    if (sq1mg > 0.0) {
        const double ratio = target / sq1mg;
        lambda = std::max(0.0, 1.0 - ratio * ratio);
    }
    return then(amplitudeDamping(gamma), phaseDamping(lambda));
}

Ptm
measureDephase()
{
    return phaseDamping(1.0);
}

Ptm
reset()
{
    Ptm m{};
    m[0] = m[4] = 1.0;
    return m;
}

Ptm
then(const Ptm &first, const Ptm &second)
{
    Ptm m{};
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            for (int k = 0; k < 4; ++k)
                m[4 * r + c] += second[4 * r + k] * first[4 * k + c];
    return m;
}

} // namespace superop

namespace {

/** In-place unnormalised Walsh-Hadamard transform of v[0, d). */
template <class T>
void
walshHadamard(T *v, size_t d)
{
    for (size_t h = 1; h < d; h <<= 1)
        for (size_t i = 0; i < d; i += 2 * h)
            for (size_t j = i; j < i + h; ++j) {
                const T a = v[j], b = v[j + h];
                v[j] = a + b;
                v[j + h] = a - b;
            }
}

/** Stream pass of a PTM on qubit q: the quad at bits (n + q, q). */
simd::PauliPass
quadPass(const Ptm &m, size_t q, size_t n)
{
    if (q >= n)
        throw std::invalid_argument("DensityMatrix: qubit out of range");
    simd::PauliPass p;
    p.kind = simd::PauliPass::Kind::Quad;
    p.lo = q;
    p.hi = n + q;
    std::copy(m.begin(), m.end(), p.ma);
    return p;
}

/** Stream pass of a Pair2q op (see DmOp and simd::PauliPass). */
simd::PauliPass
pairPass(const DmOp &op, size_t n)
{
    if (op.depol < 0.0 || op.depol > 1.0)
        throw std::invalid_argument("applyDepolarizing2q: bad p");
    if (op.q0 >= n || op.q1 >= n || op.q0 == op.q1)
        throw std::invalid_argument("DensityMatrix: bad qubit pair");
    simd::PauliPass p;
    p.kind = simd::PauliPass::Kind::Pair;
    // Group-local index k = 8 x_a + 4 x_b + 2 z_a + z_b.
    const uint64_t bit[4] = {n + op.q0, n + op.q1, op.q0, op.q1};
    const auto offset = [&](int k) {
        uint64_t off = 0;
        for (int j = 0; j < 4; ++j)
            if (k & (8 >> j))
                off |= uint64_t{1} << bit[j];
        return off;
    };
    std::copy(std::begin(bit), std::end(bit), std::begin(p.pos));
    std::sort(std::begin(p.pos), std::end(p.pos));
    // (1 - p) rho + p/15 sum_{P != II} P rho P keeps the pair identity
    // and scales the other 15 pair Paulis by 1 - 16p/15.
    const double keep = 1.0 - 16.0 * op.depol / 15.0;
    for (int k = 0; k < 16; ++k) {
        const PauliImage img = pairPauliImage(op.perm, k);
        p.from[k] = offset(k);
        p.to[k] = offset(img.k);
        p.fac[k] = (k == 0 ? 1.0 : keep) * img.sign;
    }
    p.pre_a = op.pre0;
    p.pre_b = op.pre1;
    std::copy(op.s0.begin(), op.s0.end(), p.ma);
    std::copy(op.s1.begin(), op.s1.end(), p.mb);
    return p;
}

/** A Pair2q op with no pre-ops. */
DmOp
pairOp(PairPerm perm, size_t q0, size_t q1, double depol = 0.0)
{
    DmOp op;
    op.kind = DmOpKind::Pair2q;
    op.perm = perm;
    op.q0 = static_cast<uint32_t>(q0);
    op.q1 = static_cast<uint32_t>(q1);
    op.depol = depol;
    return op;
}

/** A Super1q op. */
DmOp
superOp(const Ptm &s, size_t q)
{
    DmOp op;
    op.q0 = static_cast<uint32_t>(q);
    op.s0 = s;
    return op;
}

/**
 * The coefficients Tr(sigma(x, z) psi psi^dag) of a pure state, one
 * x at a time: fn(x, row) with row[z] for z in [0, 2^n). With
 * v_x[i] = conj(psi[i ^ x]) psi[i], <psi| X^x Z^z |psi> is the
 * Walsh-Hadamard transform of v_x at z, and sigma(x, z) = i^(x.z)
 * X^x Z^z. O(n 4^n) time, O(2^n) memory.
 */
template <class Fn>
void
forPauliRows(const Statevector &psi, Fn fn)
{
    const size_t d = size_t{1} << psi.nQubits();
    const auto &a = psi.amplitudes();
    std::vector<cd> v(d);
    std::vector<double> row(d);
    for (uint64_t x = 0; x < d; ++x) {
        for (uint64_t i = 0; i < d; ++i)
            v[i] = std::conj(a[i ^ x]) * a[i];
        walshHadamard(v.data(), d);
        // Re(i^k w) for k = x.z mod 4.
        for (uint64_t z = 0; z < d; ++z) {
            const cd w = v[z];
            switch (std::popcount(x & z) & 3) {
              case 0: row[z] = w.real(); break;
              case 1: row[z] = -w.imag(); break;
              case 2: row[z] = -w.real(); break;
              default: row[z] = w.imag(); break;
            }
        }
        fn(x, row);
    }
}

/** Build and plan the kernel pass of every op of @p ops. */
void
buildPasses(const std::vector<DmOp> &ops, size_t n, size_t size,
            std::vector<simd::PauliPass> &passes)
{
    passes.clear();
    for (const DmOp &op : ops) {
        passes.push_back(streamPass(op, n));
        simd::planPass(passes.back(), size);
    }
}

/** Every pass over all of its work units. */
void
planWhole(const std::vector<simd::PauliPass> &passes,
          simd::StreamRanges &plan)
{
    plan.ranges.clear();
    plan.first.clear();
    for (const simd::PauliPass &p : passes) {
        plan.first.push_back(plan.ranges.size());
        plan.ranges.push_back({0, p.chunks});
    }
    plan.first.push_back(plan.ranges.size());
}

bool
hasBit(const std::vector<uint64_t> &b, uint64_t i)
{
    return (b[i >> 6] >> (i & 63)) & 1;
}

void
setBit(std::vector<uint64_t> &b, uint64_t i)
{
    b[i >> 6] |= uint64_t{1} << (i & 63);
}

/** A slice bitmap's word with every slice of n qubits set (n < 6 has
 *  one word). */
uint64_t
allSlicesWord(size_t n)
{
    return n < 6 ? (uint64_t{1} << (size_t{1} << n)) - 1 : ~uint64_t{0};
}

/** Call fn(i) for every set bit i of @p b, ascending. */
template <class Fn>
void
forEachBit(const std::vector<uint64_t> &b, Fn fn)
{
    for (size_t w = 0; w < b.size(); ++w)
        for (uint64_t bits = b[w]; bits != 0; bits &= bits - 1)
            fn((static_cast<uint64_t>(w) << 6) | std::countr_zero(bits));
}

/** x with bit @p q squeezed out. */
uint64_t
dropBit(uint64_t x, uint64_t q)
{
    const uint64_t low = (uint64_t{1} << q) - 1;
    return (x & low) | ((x >> 1) & ~low);
}

/**
 * Which x_q slices a PTM on qubit q reads: keep[v] when output x_q = v
 * reads input x_q = v, cross[v] when it reads input x_q = 1 - v (rows
 * and columns I, Z have x_q = 0, X, Y have x_q = 1). NaN counts as
 * nonzero.
 */
struct SliceDeps
{
    bool keep[2] = {true, true};
    bool cross[2] = {false, false};
};

SliceDeps
sliceDeps(const Ptm &m)
{
    const auto any = [&](int r0, int c0) {
        return m[4 * r0 + c0] != 0.0 || m[4 * r0 + c0 + 1] != 0.0 ||
               m[4 * r0 + c0 + 4] != 0.0 || m[4 * r0 + c0 + 5] != 0.0;
    };
    SliceDeps d;
    d.keep[0] = any(0, 0);
    d.cross[0] = any(0, 2);
    d.cross[1] = any(2, 0);
    d.keep[1] = any(2, 2);
    return d;
}

/** The deps of an op's PTMs on q0 and q1 (none where it has no PTM). */
std::pair<SliceDeps, SliceDeps>
ptmDeps(const DmOp &op)
{
    const bool pair = op.kind == DmOpKind::Pair2q;
    return {!pair || op.pre0 ? sliceDeps(op.s0) : SliceDeps{},
            pair && op.pre1 ? sliceDeps(op.s1) : SliceDeps{}};
}

/** Call fn on each input slice that output slice x reads through a
 *  PTM with deps @p d on qubit q. */
template <class Fn>
void
forSliceDeps(uint64_t x, uint64_t q, const SliceDeps &d, Fn fn)
{
    const int v = static_cast<int>((x >> q) & 1);
    if (d.keep[v])
        fn(x);
    if (d.cross[v])
        fn(x ^ (uint64_t{1} << q));
}

/** The x map of a Pair2q permutation (each is its own inverse). */
uint64_t
permuteX(PairPerm perm, uint64_t x, uint64_t a, uint64_t b)
{
    const uint64_t xa = (x >> a) & 1, xb = (x >> b) & 1;
    switch (perm) {
      case PairPerm::CX:
        return x ^ (xa << b);
      case PairPerm::Swap:
        return xa == xb ? x : x ^ (uint64_t{1} << a) ^ (uint64_t{1} << b);
      default:
        return x;
    }
}

/** The one input x bit that output x bit @p v of a qubit reads through
 *  a PTM with deps @p d, not counting input x bit 1 when the qubit's
 *  bit is known zero; -1 when it reads both or neither. */
int
oneSource(const SliceDeps &d, uint64_t v, bool known_zero)
{
    const bool keep = d.keep[v] && !(known_zero && v == 1);
    const bool cross = d.cross[v] && !(known_zero && v == 0);
    if (keep == cross)
        return -1;
    return keep ? static_cast<int>(v) : static_cast<int>(1 - v);
}

/** Passes whose planned work (in members) is at least kWholeNum /
 *  kWholeDen of their whole work run whole: the skipped rest would not
 *  pay for the split. (8q NISQ H2O runs 0.50 of the pass work at
 *  15/16; with whole groups it ran 0.73, and at 3/4 it ran 0.82 and
 *  gained nothing on the all-slices plan.) */
constexpr size_t kWholeNum = 15, kWholeDen = 16;

/**
 * Plan a run of @p ops (kernels @p passes) from |0..0> that leaves the
 * state valid on the x slices of sp.want.
 *
 * A forward walk records, per op, the qubits whose x bit is still zero
 * in every slice (zero_x): a qubit's bit stays zero until a PTM block
 * {I, Z} -> {X, Y} on it, a CX from a qubit whose bit is set, or a
 * Swap with one. A backward walk from sp.want then gives, per op, the
 * slices it must output: the members (see simd::PauliPass) of its
 * groups (the slices that differ in the op's x bits). The op's input
 * slices are those its PTM blocks and x map read, minus the known-zero
 * ones. A group whose needed members each read one input member runs
 * only those members, from that member (src); any other needed group
 * runs whole. Groups run as ascending chunk ranges of one member mask.
 * Reading a slice outside the plan only ever happens times an exact
 * zero coefficient, or for a slice that is zero in every run; a member
 * run drops exactly those terms.
 *
 * Fills @p sp (a DensityMatrix::SlicePlan): ranges from sp.want, and
 * in sp.touched every slice of a planned group, which the run must
 * first reset to |0..0>'s values; and src in @p passes. O(ops x
 * slices) bit work.
 */
template <class Plan>
void
planSlices(const std::vector<DmOp> &ops, std::vector<simd::PauliPass> &passes,
           size_t n, Plan &sp)
{
    std::vector<uint64_t> &zero_x = sp.zero_x, &touched = sp.touched;
    std::vector<uint64_t> &cur = sp.cur, &next = sp.next;
    std::vector<uint8_t> &group_members = sp.groups;
    simd::StreamRanges &plan = sp.ranges;
    const size_t m = ops.size();
    const uint64_t all_x = (uint64_t{1} << n) - 1;
    zero_x.resize(m);
    uint64_t zero = all_x;
    for (size_t i = 0; i < m; ++i) {
        const DmOp &op = ops[i];
        zero_x[i] = zero;
        const auto [da, db] = ptmDeps(op);
        if (da.cross[1])
            zero &= ~(uint64_t{1} << op.q0);
        if (db.cross[1])
            zero &= ~(uint64_t{1} << op.q1);
        // A CX sets the target's bit where the control's is set; a
        // Swap moves a set bit, but both bits then count as set, so
        // the known-zero slices only shrink along the stream: a
        // skipped slice never keeps a stale nonzero value.
        const uint64_t za = (zero >> op.q0) & 1, zb = (zero >> op.q1) & 1;
        if (op.perm == PairPerm::CX && !za)
            zero &= ~(uint64_t{1} << op.q1);
        else if (op.perm == PairPerm::Swap && !(za && zb))
            zero &= ~((uint64_t{1} << op.q0) | (uint64_t{1} << op.q1));
    }

    cur = sp.want;
    next.resize(cur.size());
    touched = sp.want;
    bool touched_all = false;
    plan.ranges.clear();
    plan.first.assign(m + 1, 0);
    for (size_t i = m; i-- > 0;) {
        const DmOp &op = ops[i];
        simd::PauliPass &pass = passes[i];
        const bool pair = op.kind == DmOpKind::Pair2q;
        const uint64_t a = op.q0, b = op.q1;
        const uint64_t lo = pair ? std::min(a, b) : a;
        const uint64_t hi = pair ? std::max(a, b) : a;
        const size_t groups = size_t{1} << (n - (pair ? 2 : 1));
        const unsigned all_members = pair ? 15 : 3;
        const size_t n_members = pair ? 4 : 2;
        const auto [da, db] = ptmDeps(op);
        const uint64_t zero_in = zero_x[i];

        // The members that read one input member, and that member.
        bool single[4] = {};
        for (unsigned o = 0; o < n_members; ++o) {
            const uint64_t va = pair ? o >> 1 : o, vb = o & 1;
            const int sa = oneSource(da, va, (zero_in >> a) & 1);
            const int sb = pair ? oneSource(db, vb, (zero_in >> b) & 1) : 0;
            single[o] = sa >= 0 && sb >= 0;
            if (single[o])
                pass.src[o] = static_cast<uint8_t>(pair ? 2 * sa + sb : sa);
        }

        // The needed members of each group: member o of group g is the
        // output slice whose input-side x (before the x map) has bits
        // o at (a, b).
        group_members.assign(groups, 0);
        std::fill(next.begin(), next.end(), 0);
        const auto read = [&](uint64_t y) {
            if ((y & zero_in) == 0)
                setBit(next, y);
        };
        forEachBit(cur, [&](uint64_t x) {
            const uint64_t y = pair ? permuteX(op.perm, x, a, b) : x;
            const uint64_t o =
                pair ? 2 * ((y >> a) & 1) + ((y >> b) & 1) : (x >> a) & 1;
            group_members[pair ? dropBit(dropBit(x, hi), lo) : dropBit(x, a)] |=
                static_cast<uint8_t>(1u << o);
            if (!pair)
                forSliceDeps(x, a, da, read);
            else
                forSliceDeps(y, b, db,
                             [&](uint64_t z) { forSliceDeps(z, a, da, read); });
        });
        std::swap(cur, next);

        // Each needed group's range mask (0: the whole group) and the
        // work it runs, in members.
        size_t work = 0;
        const size_t first = plan.ranges.size();
        for (size_t g = 0; g < groups; ++g) {
            unsigned mask = group_members[g];
            if (mask == 0)
                continue;
            for (unsigned o = 0; o < n_members; ++o)
                if ((mask >> o & 1) && !single[o])
                    mask = all_members;
            work += static_cast<size_t>(std::popcount(mask));
            const auto members =
                static_cast<uint8_t>(mask == all_members ? 0 : mask);
            if (plan.ranges.size() > first && plan.ranges.back().c1 == g &&
                plan.ranges.back().members == members)
                ++plan.ranges.back().c1;
            else
                plan.ranges.push_back({g, g + 1, members});
        }
        const size_t per_group = pass.chunks / groups;
        if (per_group == 0 || pass.chunks % groups != 0 ||
            work * kWholeDen >= groups * n_members * kWholeNum) {
            plan.ranges.resize(first);
            plan.ranges.push_back({0, pass.chunks, 0});
            touched_all = true;
        } else {
            const uint64_t bl = uint64_t{1} << lo, bh = uint64_t{1} << hi;
            for (size_t g = 0; g < groups; ++g) {
                if (group_members[g] == 0)
                    continue;
                const uint64_t x = simd::detail::insertZeroBit(g, lo);
                const uint64_t x0 =
                    pair ? simd::detail::insertZeroBit(x, hi) : x;
                setBit(touched, x0);
                setBit(touched, x0 | bl);
                if (pair) {
                    setBit(touched, x0 | bh);
                    setBit(touched, x0 | bl | bh);
                }
            }
            for (size_t k = first; k < plan.ranges.size(); ++k) {
                plan.ranges[k].c0 *= per_group;
                plan.ranges[k].c1 *= per_group;
            }
        }
        plan.first[i] = plan.ranges.size() - first;
    }
    if (touched_all)
        touched.assign(cur.size(), allSlicesWord(n));

    // Passes were appended last to first, each ascending: restore the
    // stream order and turn the counts into offsets.
    std::reverse(plan.ranges.begin(), plan.ranges.end());
    size_t offset = 0;
    for (size_t i = 0; i < m; ++i) {
        const size_t count = plan.first[i];
        plan.first[i] = offset;
        std::reverse(plan.ranges.begin() + static_cast<std::ptrdiff_t>(offset),
                     plan.ranges.begin() +
                         static_cast<std::ptrdiff_t>(offset + count));
        offset += count;
    }
    plan.first[m] = offset;
}

/** Coefficient index (x << n) | z of @p p and the real part of
 *  i^(e - #Y) relating P = i^e X^x Z^z to sigma(x, z). */
std::pair<uint64_t, double>
coefficientOf(const PauliString &p, size_t n)
{
    const uint64_t x = n == 0 ? 0 : p.xWords()[0];
    const uint64_t z = n == 0 ? 0 : p.zWords()[0];
    const int k = ((p.phaseExponent() - std::popcount(x & z)) % 4 + 4) % 4;
    return {(x << n) | z, k == 0 ? 1.0 : k == 2 ? -1.0 : 0.0};
}

} // namespace

simd::PauliPass
streamPass(const DmOp &op, size_t n)
{
    return op.kind == DmOpKind::Super1q ? quadPass(op.s0, op.q0, n)
                                        : pairPass(op, n);
}

DensityMatrix::DensityMatrix(size_t n_qubits) : n_(n_qubits)
{
    const size_t size = checkedDensityMatrixSize(n_qubits);
    try {
        // Probe inside the try: an injected bad_alloc takes the same
        // structured ResourceError path a real allocation failure does.
        faultProbe("alloc.backend");
        data_.assign(size, 0.0);
    } catch (const std::bad_alloc &) {
        throw ResourceError("DensityMatrix", n_qubits, size * sizeof(double));
    }
    setZeroState();
}

void
DensityMatrix::setZeroState()
{
    // |0><0| = prod_q (I + Z_q) / 2: every Z-type coefficient is 1.
    pending_ = false;
    stream_.clear();
    std::fill(data_.begin(), data_.end(), 0.0);
    std::fill_n(data_.begin(), dim(), 1.0);
}

void
DensityMatrix::setPureState(const Statevector &psi)
{
    if (psi.nQubits() != n_)
        throw std::invalid_argument("setPureState: width mismatch");
    pending_ = false;
    stream_.clear();
    forPauliRows(psi, [&](uint64_t x, const std::vector<double> &row) {
        std::copy(row.begin(), row.end(), data_.begin() + (x << n_));
    });
}

std::vector<std::complex<double>>
DensityMatrix::toMatrix() const
{
    settleAll();
    std::vector<cd> m(data_.begin(), data_.end());
    // Per qubit, (c_I, c_Z, c_X, c_Y) -> (rho00, rho01, rho10, rho11) on
    // the quads at bits (n + q, q).
    const cd i_unit{0.0, 1.0};
    for (size_t q = 0; q < n_; ++q) {
        const uint64_t lo = uint64_t{1} << q, hi = uint64_t{1} << (n_ + q);
        for (uint64_t t = 0; t < m.size() / 4; ++t) {
            cd *e = m.data() + simd::detail::insertZeroBit(
                                   simd::detail::insertZeroBit(t, q), n_ + q);
            const cd ci = e[0], cz = e[lo], cx = e[hi], cy = e[hi | lo];
            e[0] = 0.5 * (ci + cz);
            e[lo] = 0.5 * (cx - i_unit * cy);
            e[hi] = 0.5 * (cx + i_unit * cy);
            e[hi | lo] = 0.5 * (ci - cz);
        }
    }
    return m;
}

void
DensityMatrix::applyMatrix1q(const Mat2 &u, size_t q)
{
    execute({superOp(superop::conjugation(u), q)});
}

void
DensityMatrix::applyGate(const Gate &g)
{
    if (g.isParameterized())
        throw std::invalid_argument(
            "DensityMatrix::applyGate: unbound parameter");
    switch (g.type) {
      case GateType::I:
        return;
      case GateType::CX:
      case GateType::CZ:
      case GateType::Swap:
        execute({pairOp(pairPerm(g.type), g.q0, g.q1)});
        return;
      case GateType::Measure:
        applyMeasurementDephase(g.q0);
        return;
      case GateType::Reset:
        applyResetChannel(g.q0);
        return;
      default:
        applyMatrix1q(gateMatrix1q(g.type, g.angle), g.q0);
        return;
    }
}

bool
DensityMatrix::forkable() const
{
#ifdef _OPENMP
    return !omp_in_parallel();
#else
    return false;
#endif
}

void
DensityMatrix::execute(const std::vector<DmOp> &ops)
{
    settleAll();
    buildPasses(ops, n_, data_.size(), passes_);
    planWhole(passes_, plan_.ranges);
    simd::runPauliStream(data_.data(), data_.size(), passes_, plan_.ranges,
                         forkable());
}

void
DensityMatrix::prepare(std::vector<DmOp> stream)
{
    stream_ = std::move(stream);
    pending_ = true;
    valid_.assign((dim() + 63) / 64, 0);
    try {
        buildPasses(stream_, n_, data_.size(), passes_);
    } catch (...) {
        stream_.clear(); // a bad op leaves |0..0>
        passes_.clear();
        throw;
    }
}

const simd::RealVector &
DensityMatrix::data() const
{
    settleAll();
    return data_;
}

void
DensityMatrix::settle(uint64_t x) const
{
    if (!pending_ || hasBit(valid_, x))
        return;
    plan_.want = valid_;
    setBit(plan_.want, x);
    runPending();
}

void
DensityMatrix::settleAll() const
{
    if (!pending_)
        return;
    plan_.want.assign(valid_.size(), allSlicesWord(n_));
    runPending();
}

void
DensityMatrix::runPending() const
{
    // A second run would repeat the first one's slices: run every slice
    // instead, so any sequence of queries on one prepared stream costs
    // at most one pruned run and one full run.
    if (std::any_of(valid_.begin(), valid_.end(),
                    [](uint64_t w) { return w != 0; }))
        plan_.want.assign(valid_.size(), allSlicesWord(n_));
    planSlices(stream_, passes_, n_, plan_);
    // |0..0>: the x = 0 slice is all ones, every other slice zero.
    const size_t d = dim();
    forEachBit(plan_.touched, [&](uint64_t x) {
        std::fill_n(data_.begin() + static_cast<std::ptrdiff_t>(x * d), d,
                    x == 0 ? 1.0 : 0.0);
    });
    simd::runPauliStream(data_.data(), data_.size(), passes_, plan_.ranges,
                         forkable());
    valid_ = plan_.want;
    if (std::all_of(valid_.begin(), valid_.end(), [&](uint64_t w) {
            return w == allSlicesWord(n_);
        })) {
        pending_ = false;
        stream_.clear();
    }
}

void
DensityMatrix::run(const Circuit &circuit)
{
    if (circuit.nQubits() != n_)
        throw std::invalid_argument("DensityMatrix::run: width mismatch");
    execute(compileNoisyStream(circuit, DmNoiseSpec{}));
}

void
DensityMatrix::applyKraus1q(const KrausChannel &channel, size_t q)
{
    execute({superOp(superop::kraus(channel), q)});
}

void
DensityMatrix::applyPauliChannel1q(const PauliChannel &channel, size_t q)
{
    execute({superOp(superop::pauli(channel), q)});
}

void
DensityMatrix::applyDepolarizing2q(double p, size_t q0, size_t q1)
{
    execute({pairOp(PairPerm::None, q0, q1, p)});
}

void
DensityMatrix::applyAmplitudeDamping(double gamma, size_t q)
{
    execute({superOp(superop::amplitudeDamping(gamma), q)});
}

void
DensityMatrix::applyPhaseDamping(double lambda, size_t q)
{
    execute({superOp(superop::phaseDamping(lambda), q)});
}

void
DensityMatrix::applyThermalRelaxation(double t1, double t2, double t,
                                      size_t q)
{
    if (t > 0.0)
        execute({superOp(superop::thermalRelaxation(t1, t2, t), q)});
}

void
DensityMatrix::applyMeasurementDephase(size_t q)
{
    execute({superOp(superop::measureDephase(), q)});
}

void
DensityMatrix::applyResetChannel(size_t q)
{
    execute({superOp(superop::reset(), q)});
}

double
DensityMatrix::expectation(const PauliString &p) const
{
    if (p.nQubits() != n_)
        throw std::invalid_argument(
            "DensityMatrix::expectation: size mismatch");
    const auto [index, sign] = coefficientOf(p, n_);
    settle(index >> n_);
    return sign * data_[index];
}

double
DensityMatrix::expectation(const Hamiltonian &h) const
{
    const std::vector<double> vals = expectationBatch(h);
    double energy = 0.0;
    for (size_t k = 0; k < vals.size(); ++k)
        energy += h.terms()[k].coefficient * vals[k];
    return energy;
}

std::vector<double>
DensityMatrix::expectationBatch(const Hamiltonian &h) const
{
    if (h.nQubits() != n_)
        throw std::invalid_argument(
            "DensityMatrix::expectationBatch: size mismatch");
    const auto &terms = h.terms();
    if (pending_) {
        plan_.want = valid_;
        for (const auto &t : terms)
            setBit(plan_.want, coefficientOf(t.op, n_).first >> n_);
        if (plan_.want != valid_)
            runPending();
    }
    std::vector<double> out(terms.size());
    for (size_t k = 0; k < terms.size(); ++k)
        out[k] = expectation(terms[k].op);
    return out;
}

std::vector<double>
DensityMatrix::diagonalProbabilities() const
{
    // p(b) = 2^-n sum_z c_z (-1)^(b . z): an in-place Walsh-Hadamard
    // transform of the Z-type coefficients.
    settle(0);
    const size_t d = dim();
    std::vector<double> probs(data_.begin(), data_.begin() + d);
    walshHadamard(probs.data(), d);
    const double scale = 1.0 / static_cast<double>(d);
    for (double &p : probs)
        p *= scale;
    return probs;
}

double
DensityMatrix::trace() const
{
    settle(0);
    return data_[0];
}

double
DensityMatrix::purity() const
{
    settleAll();
    double acc = 0.0;
    for (const double c : data_)
        acc += c * c;
    return acc / static_cast<double>(dim());
}

double
DensityMatrix::fidelityWithPure(const Statevector &psi) const
{
    if (psi.nQubits() != n_)
        throw std::invalid_argument("fidelityWithPure: width mismatch");
    settleAll();
    // Tr(rho psi psi^dag) = 2^-n sum_P c_P(rho) c_P(psi).
    double acc = 0.0;
    forPauliRows(psi, [&](uint64_t x, const std::vector<double> &row) {
        for (size_t z = 0; z < row.size(); ++z)
            acc += data_[(x << n_) | z] * row[z];
    });
    return acc / static_cast<double>(dim());
}

double
DensityMatrix::probabilityOfOne(size_t q) const
{
    if (q >= n_)
        throw std::invalid_argument("probabilityOfOne: qubit out of range");
    settle(0);
    return 0.5 * (data_[0] - data_[uint64_t{1} << q]);
}

} // namespace eftvqa
