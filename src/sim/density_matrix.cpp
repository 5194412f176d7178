#include "sim/density_matrix.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "pauli/term_groups.hpp"
#include "sim/lane_sweep.hpp"
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

namespace superop {

namespace {

Mat4
identity()
{
    Mat4 m{};
    m[0] = m[5] = m[10] = m[15] = 1.0;
    return m;
}

} // namespace

Mat4
conjugation(const Mat2 &k)
{
    // (K (x) conj K)[(2i + j), (2k + l)] = K[i][k] conj(K[j][l]).
    Mat4 m;
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            for (int a = 0; a < 2; ++a)
                for (int b = 0; b < 2; ++b)
                    m[4 * (2 * i + j) + 2 * a + b] =
                        k[2 * i + a] * std::conj(k[2 * j + b]);
    return m;
}

Mat4
kraus(const KrausChannel &channel)
{
    Mat4 m{};
    for (const Mat2 &k : channel.ops) {
        const Mat4 c = conjugation(k);
        for (int e = 0; e < 16; ++e)
            m[e] += c[e];
    }
    return m;
}

Mat4
pauli(const PauliChannel &ch)
{
    // Diagonal blocks mix by X/Y flips, coherences by the X-Y and
    // I-Z balances: rho00' = (pI + pz) rho00 + (px + py) rho11 and
    // rho01' = (pI - pz) rho01 + (px - py) rho10.
    const double pi_ = ch.pIdentity();
    const double adiag = pi_ + ch.pz, bdiag = ch.px + ch.py;
    const double aoff = pi_ - ch.pz, boff = ch.px - ch.py;
    Mat4 m{};
    m[0] = m[15] = adiag;
    m[3] = m[12] = bdiag;
    m[5] = m[10] = aoff;
    m[6] = m[9] = boff;
    return m;
}

Mat4
amplitudeDamping(double gamma)
{
    if (gamma < 0.0 || gamma > 1.0)
        throw std::invalid_argument("applyAmplitudeDamping: bad gamma");
    Mat4 m{};
    m[0] = 1.0;
    m[3] = gamma;
    m[5] = m[10] = std::sqrt(1.0 - gamma);
    m[15] = 1.0 - gamma;
    return m;
}

Mat4
phaseDamping(double lambda)
{
    if (lambda < 0.0 || lambda > 1.0)
        throw std::invalid_argument("applyPhaseDamping: bad lambda");
    Mat4 m = identity();
    m[5] = m[10] = std::sqrt(1.0 - lambda);
    return m;
}

Mat4
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

Mat4
measureDephase()
{
    return phaseDamping(1.0);
}

Mat4
reset()
{
    Mat4 m{};
    m[0] = m[3] = 1.0;
    return m;
}

Mat4
then(const Mat4 &first, const Mat4 &second)
{
    Mat4 m{};
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            for (int k = 0; k < 4; ++k)
                m[4 * r + c] += second[4 * r + k] * first[4 * k + c];
    return m;
}

} // namespace superop

DensityMatrix::DensityMatrix(size_t n_qubits) : n_(n_qubits)
{
    const size_t size = checkedDensityMatrixSize(n_qubits);
    try {
        // Probe inside the try: an injected bad_alloc takes the same
        // structured ResourceError path a real allocation failure does.
        faultProbe("alloc.backend");
        data_.assign(size, {0.0, 0.0});
    } catch (const std::bad_alloc &) {
        throw ResourceError("DensityMatrix", n_qubits,
                            size * sizeof(std::complex<double>));
    }
    data_[0] = 1.0;
}

void
DensityMatrix::setZeroState()
{
    std::fill(data_.begin(), data_.end(), std::complex<double>{0.0, 0.0});
    data_[0] = 1.0;
}

void
DensityMatrix::setPureState(const Statevector &psi)
{
    if (psi.nQubits() != n_)
        throw std::invalid_argument("setPureState: width mismatch");
    const size_t d = dim();
    const auto &amps = psi.amplitudes();
    for (size_t i = 0; i < d; ++i)
        for (size_t j = 0; j < d; ++j)
            data_[i * d + j] = amps[i] * std::conj(amps[j]);
}

namespace {

/**
 * Apply a 2x2 matrix at a global bit position of a flat vector: the
 * workhorse for both ket- and bra-side updates. SIMD when the lane
 * kernels are available (bit-identical to the scalar loop).
 */
void
applyAtBit(simd::AmpVector &v, const Mat2 &m, size_t bit)
{
    const size_t stride = size_t{1} << bit;
    if (simd::tryApply1q(v.data(), v.size(), stride, m, false))
        return;
    const size_t dim = v.size();
    for (size_t base = 0; base < dim; base += 2 * stride) {
        for (size_t off = 0; off < stride; ++off) {
            const size_t i0 = base + off;
            const size_t i1 = i0 + stride;
            const std::complex<double> a = v[i0];
            const std::complex<double> b = v[i1];
            v[i0] = m[0] * a + m[1] * b;
            v[i1] = m[2] * a + m[3] * b;
        }
    }
}

Mat2
conjugate(const Mat2 &m)
{
    return {std::conj(m[0]), std::conj(m[1]), std::conj(m[2]),
            std::conj(m[3])};
}

Mat4
conjugate4(const Mat4 &m)
{
    Mat4 out;
    for (int i = 0; i < 16; ++i)
        out[i] = std::conj(m[i]);
    return out;
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

/** Insert a zero bit at position p (bits at and above p shift up). */
uint64_t
insertZeroBit(uint64_t x, uint64_t p)
{
    const uint64_t low = (uint64_t{1} << p) - 1;
    return ((x & ~low) << 1) | (x & low);
}

/**
 * Apply a 4x4 matrix (not necessarily unitary) at two global bit
 * positions of a flat vector (pa indexes the high bit of the 4x4
 * basis): ket-side 2q gates, and one-qubit superoperators on the
 * (ket, bra) bit pair.
 */
void
applyMat4AtBits(simd::AmpVector &v, const Mat4 &m, size_t pa, size_t pb,
                bool parallel = false)
{
    if (simd::tryApply2q(v.data(), v.size(), pa, pb, m, parallel))
        return;
    const uint64_t ma = uint64_t{1} << pa;
    const uint64_t mb = uint64_t{1} << pb;
    const uint64_t plow = std::min(pa, pb);
    const uint64_t phigh = std::max(pa, pb);
    std::complex<double> *d = v.data();
    simd::detail::forSlices(
        v.size() / 4, parallel,
        [&](size_t t0, size_t t1) {
            for (size_t t = t0; t < t1; ++t) {
                const uint64_t i00 =
                    insertZeroBit(insertZeroBit(t, plow), phigh);
                const uint64_t i01 = i00 | mb;
                const uint64_t i10 = i00 | ma;
                const uint64_t i11 = i00 | ma | mb;
                const std::complex<double> v0 = d[i00];
                const std::complex<double> v1 = d[i01];
                const std::complex<double> v2 = d[i10];
                const std::complex<double> v3 = d[i11];
                using simd::detail::cmul;
                d[i00] = cmul(m[0], v0) + cmul(m[1], v1) + cmul(m[2], v2) +
                         cmul(m[3], v3);
                d[i01] = cmul(m[4], v0) + cmul(m[5], v1) + cmul(m[6], v2) +
                         cmul(m[7], v3);
                d[i10] = cmul(m[8], v0) + cmul(m[9], v1) +
                         cmul(m[10], v2) + cmul(m[11], v3);
                d[i11] = cmul(m[12], v0) + cmul(m[13], v1) +
                         cmul(m[14], v2) + cmul(m[15], v3);
            }
        },
        4);
}

} // namespace

void
DensityMatrix::applyMatrix1q(const Mat2 &u, size_t q)
{
    applyAtBit(data_, u, n_ + q);
    applyAtBit(data_, conjugate(u), q);
}

void
DensityMatrix::applyMatrix2q(const Mat4 &u, size_t qa, size_t qb)
{
    applyMat4AtBits(data_, u, n_ + qa, n_ + qb);
    applyMat4AtBits(data_, conjugate4(u), qa, qb);
}

void
DensityMatrix::applyDiagPhase(const DiagPhaseOp &dop)
{
    // One pass over the matrix: rho_ij *= ph_i conj(ph_j), with the
    // per-row phases materialized once (d entries, not 4^n).
    const size_t d = dim();
    std::vector<std::complex<double>> ph(d);
    for (uint64_t i = 0; i < d; ++i)
        ph[i] = dop.phaseAt(i);
    for (uint64_t i = 0; i < d; ++i)
        simd::rowScalePhase(&data_[i * d], d, ph[i], ph.data());
}

void
DensityMatrix::applyGf2Perm(const Gf2PermOp &p)
{
    const size_t d = dim();
    switch (p.cls) {
      case Gf2PermClass::XorMask: {
        // rho -> P rho P with P the xor-mask involution: element
        // (i, j) exchanges with (i^f, j^f), once per pair of rows.
        const uint64_t f = p.flips;
        for (uint64_t i = 0; i < d; ++i) {
            const uint64_t i2 = i ^ f;
            if (i >= i2)
                continue;
            if (simd::tryXorRowsSwap(&data_[i * d], &data_[i2 * d], d, f))
                continue;
            for (uint64_t j = 0; j < d; ++j)
                std::swap(data_[i * d + j], data_[i2 * d + (j ^ f)]);
        }
        return;
      }
      case Gf2PermClass::SingleCX:
      case Gf2PermClass::SingleSwap:
        applyPair2q(pairOp(p.cls == Gf2PermClass::SingleCX ? PairPerm::CX
                                                           : PairPerm::Swap,
                           p.q0, p.q1));
        return;
      case Gf2PermClass::General:
        break;
    }
    // General affine map, in place: permute rows then columns by
    // cycle-walking the index permutation with one row/column buffer
    // (d entries) instead of a transient 4^n scratch matrix — at the
    // 13-qubit cap a full scratch would double the gigabyte-scale
    // footprint.
    std::vector<uint64_t> src(d);
    for (uint64_t y = 0; y < d; ++y)
        src[y] = p.applyInverse(y);
    std::vector<std::complex<double>> buf(d);
    std::vector<char> visited(d, 0);

    // Rows: row y <- row src[y], cycle by cycle.
    for (uint64_t start = 0; start < d; ++start) {
        if (visited[start] || src[start] == start)
            continue;
        std::copy_n(&data_[start * d], d, buf.begin());
        uint64_t y = start;
        while (true) {
            visited[y] = 1;
            const uint64_t s = src[y];
            if (s == start)
                break;
            std::copy_n(&data_[s * d], d, &data_[y * d]);
            y = s;
        }
        std::copy_n(buf.begin(), d, &data_[y * d]);
    }

    // Columns: column y <- column src[y], same cycles.
    std::fill(visited.begin(), visited.end(), 0);
    for (uint64_t start = 0; start < d; ++start) {
        if (visited[start] || src[start] == start)
            continue;
        for (uint64_t i = 0; i < d; ++i)
            buf[i] = data_[i * d + start];
        uint64_t y = start;
        while (true) {
            visited[y] = 1;
            const uint64_t s = src[y];
            if (s == start)
                break;
            for (uint64_t i = 0; i < d; ++i)
                data_[i * d + y] = data_[i * d + s];
            y = s;
        }
        for (uint64_t i = 0; i < d; ++i)
            data_[i * d + y] = buf[i];
    }
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
        applyPair2q(pairOp(pairPerm(g.type), g.q0, g.q1));
        return;
      case GateType::Measure:
        applyMeasurementDephase(g.q0);
        return;
      case GateType::Reset:
        applyResetChannel(g.q0);
        return;
      default:
        applySuper1q(superop::conjugation(gateMatrix1q(g.type, g.angle)),
                     g.q0);
        return;
    }
}

bool
DensityMatrix::forkable() const
{
#ifdef _OPENMP
    return parallel_ && !omp_in_parallel();
#else
    return false;
#endif
}

void
DensityMatrix::applySuper1q(const Mat4 &s, size_t q)
{
    applyMat4AtBits(data_, s, n_ + q, q, forkable());
}

void
DensityMatrix::applyPair2q(const DmOp &op)
{
    if (op.depol < 0.0 || op.depol > 1.0)
        throw std::invalid_argument("applyDepolarizing2q: bad p");
    // Group-local index k = 8 ket_a + 4 ket_b + 2 bra_a + bra_b.
    const uint64_t bit[4] = {n_ + op.q0, n_ + op.q1, op.q0, op.q1};
    const auto offset = [&](int k) {
        uint64_t off = 0;
        for (int j = 0; j < 4; ++j)
            if (k & (8 >> j))
                off |= uint64_t{1} << bit[j];
        return off;
    };
    simd::PairKernel pk;
    std::copy(std::begin(bit), std::end(bit), std::begin(pk.pos));
    std::sort(std::begin(pk.pos), std::end(pk.pos));
    pk.pre_a = op.pre0 ? &op.s0 : nullptr;
    pk.pre_b = op.pre1 ? &op.s1 : nullptr;
    if (op.depol > 0.0) {
        // (1 - p) rho + p/15 sum_{P != II} P rho P: mix by 16p/15
        // toward (pair-traced rho) (x) I/4.
        const double lambda = 16.0 * op.depol / 15.0;
        pk.depol = true;
        pk.keep = 1.0 - lambda;
        pk.quarter_mix = 0.25 * lambda;
    }
    for (int k = 0; k < 16; ++k) {
        // The same basis permutation on the ket pair and the bra pair.
        int ka = (k >> 3) & 1, kb = (k >> 2) & 1;
        int ba = (k >> 1) & 1, bb = k & 1;
        switch (op.perm) {
          case PairPerm::None:
            break;
          case PairPerm::CX:
            kb ^= ka;
            bb ^= ba;
            break;
          case PairPerm::CZ:
            pk.flip[k] = (ka & kb) != (ba & bb);
            break;
          case PairPerm::Swap:
            std::swap(ka, kb);
            std::swap(ba, bb);
            break;
        }
        pk.from[k] = offset(k);
        pk.to[k] = offset(8 * ka + 4 * kb + 2 * ba + bb);
    }
    simd::applyPair2q(data_.data(), data_.size(), pk, forkable());
}

void
DensityMatrix::execute(const std::vector<DmOp> &ops)
{
    for (const DmOp &op : ops) {
        if (op.kind == DmOpKind::Super1q)
            applySuper1q(op.s0, op.q0);
        else
            applyPair2q(op);
    }
}

void
DensityMatrix::run(const Circuit &circuit)
{
    if (circuit.nQubits() != n_)
        throw std::invalid_argument("DensityMatrix::run: width mismatch");
    runCompiled(CompiledCircuit(circuit));
}

void
DensityMatrix::runCompiled(const CompiledCircuit &compiled)
{
    if (compiled.nQubits() != n_)
        throw std::invalid_argument("DensityMatrix::run: width mismatch");
    for (const CompiledOp &op : compiled.ops()) {
        switch (op.kind) {
          case CompiledOpKind::Unitary1q:
            applyMatrix1q(compiled.mat1(op), op.q0);
            break;
          case CompiledOpKind::Unitary2q:
            applyMatrix2q(compiled.mat2(op), op.q0, op.q1);
            break;
          case CompiledOpKind::DiagPhase:
            applyDiagPhase(compiled.diag(op));
            break;
          case CompiledOpKind::Gf2Perm:
            applyGf2Perm(compiled.perm(op));
            break;
          case CompiledOpKind::Measure:
            applyMeasurementDephase(op.q0);
            break;
          case CompiledOpKind::Reset:
            applyResetChannel(op.q0);
            break;
        }
    }
}

void
DensityMatrix::applyKraus1q(const KrausChannel &channel, size_t q)
{
    applySuper1q(superop::kraus(channel), q);
}

void
DensityMatrix::applyPauliChannel1q(const PauliChannel &channel, size_t q)
{
    applySuper1q(superop::pauli(channel), q);
}

void
DensityMatrix::applyDepolarizing2q(double p, size_t q0, size_t q1)
{
    applyPair2q(pairOp(PairPerm::None, q0, q1, p));
}

void
DensityMatrix::applyAmplitudeDamping(double gamma, size_t q)
{
    applySuper1q(superop::amplitudeDamping(gamma), q);
}

void
DensityMatrix::applyPhaseDamping(double lambda, size_t q)
{
    applySuper1q(superop::phaseDamping(lambda), q);
}

void
DensityMatrix::applyThermalRelaxation(double t1, double t2, double t,
                                      size_t q)
{
    if (t > 0.0)
        applySuper1q(superop::thermalRelaxation(t1, t2, t), q);
}

void
DensityMatrix::applyMeasurementDephase(size_t q)
{
    applySuper1q(superop::measureDephase(), q);
}

void
DensityMatrix::applyResetChannel(size_t q)
{
    applySuper1q(superop::reset(), q);
}

double
DensityMatrix::expectation(const PauliString &p) const
{
    if (p.nQubits() != n_)
        throw std::invalid_argument(
            "DensityMatrix::expectation: size mismatch");
    const size_t d = dim();
    std::complex<double> acc = 0.0;
    std::complex<double> amp;
    // Tr(P rho) = sum_i <i| P rho |i> = sum_i amp_i' rho[pi(i), i] with
    // P|j> = amp |pi(j)>; using <i|P = (P|i>)^T row.
    for (uint64_t i = 0; i < d; ++i) {
        const uint64_t j = p.applyToBasis(i, amp);
        acc += amp * data_[i * d + j];
    }
    return acc.real();
}

double
DensityMatrix::expectation(const Hamiltonian &h) const
{
    double energy = 0.0;
    for (const auto &t : h.terms())
        energy += t.coefficient * expectation(t.op);
    return energy;
}

std::vector<double>
DensityMatrix::expectationBatch(const Hamiltonian &h) const
{
    if (h.nQubits() != n_)
        throw std::invalid_argument(
            "DensityMatrix::expectationBatch: size mismatch");
    const size_t d = dim();
    const std::complex<double> *data = data_.data();
    return detail::expectationBatchSweep(
        h, d,
        // Diagonal group: only Re(rho_ii) survives the final real
        // projection (Hermitian Z-type terms have +/-1 phase).
        [data, d](uint64_t i) {
            return std::complex<double>{data[i * d + i].real(), 0.0};
        },
        [data, d](uint64_t xm) {
            return [data, d, xm](uint64_t i) {
                return data[i * d + (i ^ xm)];
            };
        },
        [data, d](uint64_t xm, size_t lanes, const uint64_t *z,
                  bool parallel, double *out_re, double *out_im) {
            return simd::trySweepChunkDm(data, d, xm, lanes, z, parallel,
                                         out_re, out_im);
        });
}

std::vector<double>
DensityMatrix::diagonalProbabilities() const
{
    const size_t d = dim();
    std::vector<double> probs(d);
    for (uint64_t i = 0; i < d; ++i)
        probs[i] = data_[i * d + i].real();
    return probs;
}

double
DensityMatrix::trace() const
{
    const size_t d = dim();
    std::complex<double> acc = 0.0;
    for (uint64_t i = 0; i < d; ++i)
        acc += data_[i * d + i];
    return acc.real();
}

double
DensityMatrix::purity() const
{
    double acc = 0.0;
    for (const auto &c : data_)
        acc += std::norm(c);
    return acc;
}

double
DensityMatrix::fidelityWithPure(const Statevector &psi) const
{
    if (psi.nQubits() != n_)
        throw std::invalid_argument("fidelityWithPure: width mismatch");
    const size_t d = dim();
    const auto &amps = psi.amplitudes();
    std::complex<double> acc = 0.0;
    for (uint64_t i = 0; i < d; ++i)
        for (uint64_t j = 0; j < d; ++j)
            acc += std::conj(amps[i]) * data_[i * d + j] * amps[j];
    return acc.real();
}

double
DensityMatrix::probabilityOfOne(size_t q) const
{
    const size_t d = dim();
    const uint64_t qmask = uint64_t{1} << q;
    double p1 = 0.0;
    for (uint64_t i = 0; i < d; ++i)
        if (i & qmask)
            p1 += data_[i * d + i].real();
    return p1;
}

} // namespace eftvqa
