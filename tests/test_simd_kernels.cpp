// Bit-identity matrix for the hand-vectorized batch kernels: FIR
// decimation and FFT stages, dispatched at whatever ISA this binary
// compiled in, must produce outputs byte-identical to the forced width-1
// scalar reference — across odd lengths, remainder tails and the public
// entry points that route through them. The serial mixer and correlation
// loops are checked against literal fresh-Nco and naive references. The
// cross-ISA tests at the end run seeded waveform campaigns and a fleet
// replicate both ways at 1/2/8 threads. The comparisons are memcmp, not
// EXPECT_DOUBLE_EQ: the contract is identical bits, not tolerable error.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/mixer.hpp"
#include "dsp/simd/simd.hpp"
#include "sim/campaign.hpp"
#include "sim/fleet/fleet.hpp"
#include "sim/montecarlo.hpp"
#include "sim/scenario.hpp"

namespace vab {
namespace {

using dsp::simd::Isa;

// Lengths chosen to hit empty input, sub-width, exactly one vector, one
// vector plus remainder, the 2x-unrolled main loop and long tails.
const std::vector<std::size_t> kLengths = {0,  1,  2,  3,   7,   8,   15,  16,
                                           17, 31, 32, 33,  63,  64,  65,  100,
                                           127, 128, 129, 255, 256, 1000};

cvec random_cvec(common::Rng& rng, std::size_t n) {
  cvec v(n);
  for (auto& x : v) x = rng.complex_gaussian(1.0);
  return v;
}

rvec random_rvec(common::Rng& rng, std::size_t n) {
  rvec v(n);
  for (auto& x : v) x = rng.gaussian();
  return v;
}

bool bytes_equal(const cvec& a, const cvec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0);
}

bool bytes_equal(const rvec& a, const rvec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Runs `fn` once under forced-scalar dispatch and once under the
/// automatically resolved ISA, returning (scalar, dispatched) results.
template <typename Fn>
auto scalar_vs_dispatched(Fn&& fn) {
  EXPECT_TRUE(dsp::simd::force_isa(Isa::kScalar));
  auto scalar = fn();
  dsp::simd::reset_isa();
  auto dispatched = fn();
  return std::make_pair(std::move(scalar), std::move(dispatched));
}

/// Direct correlation in std::complex arithmetic: out[k] = sum_n sig[k+n] *
/// conj(ref[n]), each lag summed in n order.
cvec naive_ccorr(const cvec& sig, const cvec& ref) {
  cvec out(sig.size() - ref.size() + 1);
  for (std::size_t k = 0; k < out.size(); ++k)
    for (std::size_t n = 0; n < ref.size(); ++n)
      out[k] += sig[k + n] * std::conj(ref[n]);
  return out;
}

class SimdKernels : public ::testing::Test {
 protected:
  void TearDown() override {
    dsp::simd::reset_isa();
    common::set_thread_count(0);
  }
};

TEST_F(SimdKernels, DispatchReportsACoherentIsa) {
  const Isa active = dsp::simd::active_isa();
  EXPECT_STRNE(dsp::simd::isa_name(active), "unknown");
  // The active ISA can never exceed what was compiled in.
  if (dsp::simd::compiled_isa() == Isa::kScalar) {
    EXPECT_EQ(active, Isa::kScalar);
  }
  // Forcing scalar always succeeds and sticks until reset.
  EXPECT_TRUE(dsp::simd::force_isa(Isa::kScalar));
  EXPECT_EQ(dsp::simd::active_isa(), Isa::kScalar);
  dsp::simd::reset_isa();
  EXPECT_EQ(dsp::simd::active_isa(), active);
}

TEST_F(SimdKernels, ForcingUncompiledIsaFails) {
  if (dsp::simd::compiled_isa() != Isa::kAvx2) {
    EXPECT_FALSE(dsp::simd::force_isa(Isa::kAvx2));
  }
}

TEST_F(SimdKernels, FirDecimateMatchesScalarAcrossLengthsTapsAndFactors) {
  common::Rng rng(101);
  for (const std::size_t n : kLengths) {
    const cvec x = random_cvec(rng, n);
    for (const std::size_t n_taps : {std::size_t{1}, std::size_t{5}, std::size_t{255}}) {
      const rvec taps = random_rvec(rng, n_taps);
      for (const std::size_t m : {std::size_t{1}, std::size_t{3}, std::size_t{24}}) {
        for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
          auto [scalar, simd] = scalar_vs_dispatched([&] {
            cvec out;
            dsp::fir_filter_decimate(taps, x, m, offset, out);
            return out;
          });
          EXPECT_TRUE(bytes_equal(scalar, simd))
              << "n=" << n << " taps=" << n_taps << " m=" << m
              << " offset=" << offset;
        }
      }
    }
  }
}

TEST_F(SimdKernels, SlidingCorrelateMatchesScalarNaiveAndFftPaths) {
  common::Rng rng(202);
  for (const std::size_t n : kLengths) {
    if (n == 0) continue;
    const cvec sig = random_cvec(rng, n);
    for (const std::size_t ref_len :
         {std::size_t{1}, std::size_t{3}, std::size_t{16}, std::size_t{33}}) {
      if (ref_len > n) continue;
      const cvec ref = random_cvec(rng, ref_len);
      EXPECT_TRUE(bytes_equal(naive_ccorr(sig, ref),
                              dsp::sliding_correlate_naive(sig, ref)))
          << "naive n=" << n << " ref=" << ref_len;
      // Long problems take the overlap-save path, whose FFT stages dispatch.
      auto [scalar_auto, simd_auto] =
          scalar_vs_dispatched([&] { return dsp::sliding_correlate(sig, ref); });
      EXPECT_TRUE(bytes_equal(scalar_auto, simd_auto))
          << "auto n=" << n << " ref=" << ref_len;
    }
  }
}

TEST_F(SimdKernels, UnalignedHeadsProduceIdenticalBits) {
  // Walk the signal pointer across every 16-byte phase.
  common::Rng rng(303);
  const cvec sig = random_cvec(rng, 70);
  const cvec ref = random_cvec(rng, 9);
  for (std::size_t head = 0; head < 4; ++head) {
    const cvec view(sig.begin() + static_cast<std::ptrdiff_t>(head), sig.end());
    EXPECT_TRUE(bytes_equal(naive_ccorr(view, ref),
                            dsp::sliding_correlate_naive(view, ref)))
        << "head=" << head;
  }
}

TEST_F(SimdKernels, FftForwardInverseAndConvolveMatchScalar) {
  common::Rng rng(404);
  for (std::size_t n = 2; n <= 4096; n <<= 1) {
    const cvec x = random_cvec(rng, n);
    auto [scalar_f, simd_f] = scalar_vs_dispatched([&] { return dsp::fft(x); });
    EXPECT_TRUE(bytes_equal(scalar_f, simd_f)) << "fft n=" << n;
    auto [scalar_i, simd_i] = scalar_vs_dispatched([&] { return dsp::ifft(x); });
    EXPECT_TRUE(bytes_equal(scalar_i, simd_i)) << "ifft n=" << n;
  }
}

TEST_F(SimdKernels, MixersMatchFreshNcoReference) {
  // The mixers layer a tone-table cache over elementwise products; compare
  // every length against a literal fresh-Nco serial loop, which is what the
  // historical code computed.
  for (const std::size_t n : kLengths) {
    common::Rng rng(505);
    const rvec pass = random_rvec(rng, n);
    const cvec base = random_cvec(rng, n);
    const double f = 18500.0;
    const double fs = 120000.0;
    const double ph = 0.7;

    rvec tone_ref(n);
    {
      dsp::Nco nco(f, fs, ph);
      for (auto& v : tone_ref) v = 0.5 * nco.next_cos();
    }
    cvec down_ref(n);
    {
      dsp::Nco nco(-f, fs, -ph);
      for (std::size_t i = 0; i < n; ++i) down_ref[i] = pass[i] * nco.next();
    }
    rvec up_ref(n);
    {
      dsp::Nco nco(f, fs, ph);
      for (std::size_t i = 0; i < n; ++i) up_ref[i] = (base[i] * nco.next()).real();
    }

    EXPECT_TRUE(bytes_equal(tone_ref, dsp::make_tone(f, fs, n, 0.5, ph)))
        << "tone n=" << n;
    EXPECT_TRUE(bytes_equal(down_ref, dsp::downconvert(pass, f, fs, ph)))
        << "down n=" << n;
    EXPECT_TRUE(bytes_equal(up_ref, dsp::upconvert(base, f, fs, ph)))
        << "up n=" << n;
  }
}

TEST_F(SimdKernels, ToneCacheExtensionIsBitIdenticalToFreshOscillator) {
  // A short request populates the cache; a longer one for the same carrier
  // extends the stored table via the saved oscillator state. The extension
  // must continue the exact phase recurrence a fresh Nco would run.
  const double f = 12345.0;
  const double fs = 96000.0;
  const rvec short_tone = dsp::make_tone(f, fs, 64, 1.0, 0.25);
  const rvec long_tone = dsp::make_tone(f, fs, 256, 1.0, 0.25);
  rvec ref(256);
  dsp::Nco nco(f, fs, 0.25);
  for (auto& v : ref) v = nco.next_cos();
  EXPECT_TRUE(bytes_equal(ref, long_tone));
  for (std::size_t i = 0; i < short_tone.size(); ++i)
    EXPECT_EQ(short_tone[i], long_tone[i]);
}

TEST_F(SimdKernels, EnergyAndRmsShareTheSerialReduction) {
  common::Rng rng(606);
  for (const std::size_t n : kLengths) {
    const cvec c = random_cvec(rng, n);
    const rvec r = random_rvec(rng, n);
    double ce = 0.0;
    for (const auto& v : c) ce += std::norm(v);
    double re = 0.0;
    for (const double v : r) re += v * v;
    // Reductions are never reassociated, so these hold bit for bit.
    EXPECT_EQ(ce, dsp::energy(c)) << "n=" << n;
    EXPECT_EQ(re, dsp::energy(r)) << "n=" << n;
  }
}

TEST_F(SimdKernels, NormalizedCorrelateAndFindPeakMatchScalar) {
  // The peak's raw dot is the direct loop at the peak lag, and the peak
  // value is the normalized correlation there.
  common::Rng rng(707);
  const cvec sig = random_cvec(rng, 300);
  const cvec ref = random_cvec(rng, 25);
  const auto peak = dsp::find_peak(sig, ref, 0.0);
  ASSERT_TRUE(peak.has_value());
  const cvec dots = naive_ccorr(sig, ref);
  EXPECT_EQ(std::memcmp(&peak->raw, &dots[peak->index], sizeof(cplx)), 0);
  EXPECT_EQ(peak->value, dsp::normalized_correlate(sig, ref).at(peak->index));
}

// ---- Cross-ISA identity of whole workloads ---------------------------------
//
// Each workload is reduced to a list of 64-bit words (integers as is, doubles
// by bit pattern) and must produce the same list under forced-scalar and
// automatic dispatch at 1, 2 and 8 engine threads.

using Words = std::vector<std::uint64_t>;

void append(Words& w, std::uint64_t v) { w.push_back(v); }
void append(Words& w, double v) { w.push_back(std::bit_cast<std::uint64_t>(v)); }

void append(Words& w, const sim::WaveformStats& s) {
  append(w, std::uint64_t{s.trials});
  append(w, std::uint64_t{s.frames_synced});
  append(w, std::uint64_t{s.frames_ok});
  append(w, std::uint64_t{s.total_bits});
  append(w, std::uint64_t{s.bit_errors});
  append(w, s.mean_snr_db);
  append(w, s.mean_corr_peak);
  append(w, s.mean_sic_suppression_db);
}

template <typename Fn>
void expect_identical_across_isas_and_threads(Fn&& run) {
  ASSERT_TRUE(dsp::simd::force_isa(Isa::kScalar));
  common::set_thread_count(1);
  const Words reference = run();
  ASSERT_FALSE(reference.empty());
  for (const bool scalar : {true, false}) {
    if (scalar) {
      ASSERT_TRUE(dsp::simd::force_isa(Isa::kScalar));
    } else {
      dsp::simd::reset_isa();
    }
    for (const unsigned threads : {1u, 2u, 8u}) {
      common::set_thread_count(threads);
      EXPECT_EQ(reference, run())
          << dsp::simd::isa_name(dsp::simd::active_isa())
          << " threads=" << threads;
    }
  }
}

/// River 100 m, ocean 100 m and river 200 m with FEC: clean decodes, the
/// failure paths and the FrameCodec decode.
std::vector<sim::WaveformJob> mixed_jobs(std::size_t trials) {
  sim::Scenario river100 = sim::vab_river_scenario();
  river100.range_m = 100.0;
  sim::Scenario ocean100 = sim::vab_ocean_scenario();
  ocean100.range_m = 100.0;
  sim::Scenario river200_fec = sim::vab_river_scenario();
  river200_fec.range_m = 200.0;
  river200_fec.fec.enable = true;
  const common::Rng rng(808);
  std::vector<sim::WaveformJob> jobs;
  std::uint64_t stream = 0;
  for (const auto& sc : {river100, ocean100, river200_fec})
    jobs.push_back(sim::WaveformJob{sc, trials, 64, rng.child(stream++)});
  return jobs;
}

TEST_F(SimdKernels, WaveformBatchIsIdenticalAcrossIsasAndThreads) {
  const auto jobs = mixed_jobs(6);
  expect_identical_across_isas_and_threads([&] {
    Words w;
    for (const auto& s : sim::run_waveform_batch(jobs)) append(w, s);
    return w;
  });
}

TEST_F(SimdKernels, ShardedWaveformCampaignIsIdenticalAcrossIsasAndThreads) {
  const auto jobs = mixed_jobs(4);
  expect_identical_across_isas_and_threads([&] {
    std::vector<sim::WaveformShardResult> shards;
    Words w;
    for (std::size_t i = 0; i < 3; ++i) {
      sim::CampaignConfig cfg;  // no dir: compute-only shards
      cfg.key = "cross-isa";
      cfg.shard.index = i;
      cfg.shard.count = 3;
      shards.push_back(sim::run_waveform_batch_shard(jobs, cfg));
      for (const auto& o : shards.back().outcomes) {
        append(w, std::uint64_t{o.bit_errors});
        append(w, std::uint64_t{o.sync_found} << 1 | std::uint64_t{o.frame_ok});
        append(w, o.snr_db);
        append(w, o.corr_peak);
        append(w, o.sic_suppression_db);
      }
    }
    for (const auto& s : sim::merge_waveform_batch_campaign(shards, jobs))
      append(w, s);
    return w;
  });
}

TEST_F(SimdKernels, AdaptiveFleetReplicateIsIdenticalAcrossIsasAndThreads) {
  sim::fleet::FleetConfig fc;  // adaptive fidelity is the default
  fc.scenario = sim::vab_ocean_scenario();
  fc.n_nodes = 1000;
  fc.n_readers = 4;
  fc.area_m = 1500.0;
  fc.fidelity.max_waveform_polls = 4;
  const common::Rng rng(909);
  expect_identical_across_isas_and_threads([&] {
    const auto runs = sim::fleet::run_fleet_replicates(fc, 1, rng);
    const sim::fleet::FleetResult& r = runs.at(0);
    EXPECT_GT(r.tally.waveform_polls, 0u);
    Words w;
    append(w, r.digest);
    append(w, std::uint64_t{r.tally.waveform_polls});
    append(w, r.makespan_s);
    append(w, r.airtime_s);
    append(w, r.waterfall_snr_db);
    return w;
  });
}

}  // namespace
}  // namespace vab
