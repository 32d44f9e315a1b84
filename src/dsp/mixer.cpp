#include "dsp/mixer.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "common/units.hpp"
#include "obs/metrics.hpp"

namespace vab::dsp {

Nco::Nco(double freq_hz, double fs_hz, double phase_rad)
    : step_(common::kTwoPi * freq_hz / fs_hz), phase_(phase_rad) {
  if (fs_hz <= 0.0) throw std::invalid_argument("NCO sample rate must be > 0");
}

cplx Nco::next() {
  const cplx out{std::cos(phase_), std::sin(phase_)};
  phase_ = common::wrap_angle(phase_ + step_);
  return out;
}

double Nco::next_cos() { return next().real(); }

namespace {

// Per-thread cache of complex oscillator tables. The serial sin/cos phase
// recurrence dominates a mixer (each sample's phase depends on the previous
// wrap_angle), and the simulator mixes against the same handful of carriers
// millions of samples at a time — so memoize the oscillator output and
// reduce every mixer to an elementwise product. The products spell out their
// real arithmetic instead of std::complex operator*, which adds a NaN-recovery
// check per complex product; for finite values the bits equal the fresh-Nco
// fallbacks.
//
// Bit-identity: a cached table holds exactly the values a fresh Nco would
// emit (the stored Nco continues the same phase recurrence when a longer
// request extends an entry), and results never depend on hit vs miss.
// Entries are keyed on the exact bit patterns of (freq, fs, phase) — no
// epsilon matching — and evicted round-robin, deterministically per thread.
constexpr std::size_t kToneCacheEntries = 4;
constexpr std::size_t kToneCacheMaxSamples = std::size_t{1} << 19;

std::uint64_t dbits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct ToneEntry {
  bool used = false;
  std::uint64_t freq_bits = 0;
  std::uint64_t fs_bits = 0;
  std::uint64_t phase_bits = 0;
  std::optional<Nco> nco;  // positioned at samples.size(), ready to extend
  cvec samples;
};

}  // namespace

const cvec* cached_tone(double freq_hz, double fs_hz, double phase_rad,
                       std::size_t n) {
  if (n > kToneCacheMaxSamples) return nullptr;
  static thread_local std::array<ToneEntry, kToneCacheEntries> entries;
  static thread_local std::size_t next_victim = 0;
  static const obs::Counter hits = obs::counter("dsp.mixer.tone_hits");
  static const obs::Counter misses = obs::counter("dsp.mixer.tone_misses");

  for (auto& e : entries) {
    if (e.used && e.freq_bits == dbits(freq_hz) && e.fs_bits == dbits(fs_hz) &&
        e.phase_bits == dbits(phase_rad)) {
      while (e.samples.size() < n) e.samples.push_back(e.nco->next());
      hits.add(1);
      return &e.samples;
    }
  }

  // Construct the oscillator before touching the slot: the Nco constructor
  // validates fs_hz and must not leave a poisoned cache entry behind.
  Nco fresh(freq_hz, fs_hz, phase_rad);
  ToneEntry& e = entries[next_victim];
  next_victim = (next_victim + 1) % kToneCacheEntries;
  e.used = true;
  e.freq_bits = dbits(freq_hz);
  e.fs_bits = dbits(fs_hz);
  e.phase_bits = dbits(phase_rad);
  e.samples.clear();
  e.samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) e.samples.push_back(fresh.next());
  e.nco = fresh;
  misses.add(1);
  return &e.samples;
}

rvec make_tone(double freq_hz, double fs_hz, std::size_t n, double amplitude,
               double phase_rad) {
  rvec out;
  make_tone(freq_hz, fs_hz, n, amplitude, phase_rad, out);
  return out;
}

void make_tone(double freq_hz, double fs_hz, std::size_t n, double amplitude,
               double phase_rad, rvec& out) {
  if (const cvec* tone = cached_tone(freq_hz, fs_hz, phase_rad, n)) {
    const cplx* t = tone->data();
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = amplitude * t[i].real();
    return;
  }
  Nco nco(freq_hz, fs_hz, phase_rad);
  out.resize(n);
  for (auto& x : out) x = amplitude * nco.next_cos();
}

cvec downconvert(const rvec& x, double freq_hz, double fs_hz, double phase_rad) {
  cvec out;
  downconvert(x, freq_hz, fs_hz, phase_rad, out);
  return out;
}

void downconvert(const rvec& x, double freq_hz, double fs_hz, double phase_rad,
                 cvec& out) {
  if (const cvec* tone = cached_tone(-freq_hz, fs_hz, -phase_rad, x.size())) {
    const cplx* t = tone->data();
    out.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      out[i] = cplx{t[i].real() * x[i], t[i].imag() * x[i]};
    return;
  }
  Nco nco(-freq_hz, fs_hz, -phase_rad);
  out.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] * nco.next();
}

}  // namespace vab::dsp
