#include "pauli/hamiltonian.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "pauli/lanczos.hpp"

namespace eftvqa {

Hamiltonian::Hamiltonian(size_t n_qubits) : n_(n_qubits) {}

void
Hamiltonian::addTerm(double coefficient, const PauliString &op)
{
    if (op.nQubits() != n_)
        throw std::invalid_argument("Hamiltonian::addTerm: size mismatch");
    if (!op.isHermitian())
        throw std::invalid_argument(
            "Hamiltonian::addTerm: non-Hermitian Pauli");
    terms_.emplace_back(coefficient, op);
}

void
Hamiltonian::addTerm(double coefficient, const std::string &label)
{
    addTerm(coefficient, PauliString::fromLabel(label));
}

uint64_t
Hamiltonian::contentHash() const
{
    // FNV-1a, exact coefficient bits (no epsilon fuzz) — the session
    // cache must only ever merge Hamiltonians that evaluate identically.
    constexpr uint64_t kPrime = 0x100000001B3ull;
    uint64_t h = 0xCBF29CE484222325ull;
    auto mix = [&h](uint64_t v) { h = (h ^ v) * kPrime; };
    mix(n_);
    for (const auto &t : terms_) {
        mix(std::bit_cast<uint64_t>(t.coefficient));
        for (size_t q = 0; q < n_; ++q)
            mix(static_cast<uint64_t>(t.op.at(q)));
        mix(static_cast<uint64_t>(t.op.phaseExponent()));
    }
    return h;
}

double
Hamiltonian::oneNorm() const
{
    double total = 0.0;
    for (const auto &t : terms_)
        total += std::abs(t.coefficient);
    return total;
}

void
Hamiltonian::apply(const std::vector<std::complex<double>> &v,
                   std::vector<std::complex<double>> &out) const
{
    const size_t dim = size_t{1} << n_;
    if (v.size() != dim)
        throw std::invalid_argument("Hamiltonian::apply: bad vector size");
    out.assign(dim, {0.0, 0.0});
    // Real arithmetic on the interleaved (re, im) pairs: P|i> =
    // i^e (-1)^parity(i & z) |i ^ x>, so row j = i ^ x accumulates
    // w v_i (e even) or i w v_i (e odd) with the real w = +-c: the same
    // products as the complex c * i^e * v_i, whose other terms are
    // exact zeros.
    const double *in = reinterpret_cast<const double *>(v.data());
    double *acc = reinterpret_cast<double *>(out.data());
    for (const auto &t : terms_) {
        const uint64_t xm = n_ == 0 ? 0 : t.op.xWords()[0];
        const uint64_t zm = n_ == 0 ? 0 : t.op.zWords()[0];
        const int e = t.op.phaseExponent() & 3;
        const double c = e & 2 ? -t.coefficient : t.coefficient;
        for (uint64_t i = 0; i < dim; ++i) {
            const double w = std::popcount(i & zm) & 1 ? -c : c;
            double *o = acc + 2 * (i ^ xm);
            if (e & 1) {
                o[0] -= w * in[2 * i + 1];
                o[1] += w * in[2 * i];
            } else {
                o[0] += w * in[2 * i];
                o[1] += w * in[2 * i + 1];
            }
        }
    }
}

double
Hamiltonian::groundStateEnergy(size_t max_iterations) const
{
    const size_t dim = size_t{1} << n_;
    auto apply_fn = [this](const std::vector<std::complex<double>> &v,
                           std::vector<std::complex<double>> &out) {
        apply(v, out);
    };
    return lanczosSmallestEigenvalue(apply_fn, dim, max_iterations);
}

void
Hamiltonian::compress(double tol)
{
    std::unordered_map<size_t, size_t> index_of;
    std::vector<PauliTerm> merged;
    for (const auto &t : terms_) {
        const size_t h = t.op.hash();
        auto it = index_of.find(h);
        if (it != index_of.end() && merged[it->second].op == t.op) {
            merged[it->second].coefficient += t.coefficient;
        } else {
            index_of[h] = merged.size();
            merged.push_back(t);
        }
    }
    terms_.clear();
    for (auto &t : merged)
        if (std::abs(t.coefficient) > tol)
            terms_.push_back(std::move(t));
}

} // namespace eftvqa
