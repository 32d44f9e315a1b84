// Modem chain: modulator waveform structure, demodulation through ideal and
// impaired channels, SIC behaviour, sync robustness.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/mixer.hpp"
#include "phy/coding.hpp"
#include "phy/fm0.hpp"
#include "phy/modem.hpp"

namespace vab {
namespace {

phy::PhyConfig test_config(double bitrate = 500.0) {
  phy::PhyConfig cfg;
  cfg.fs_hz = 96000.0;
  cfg.carrier_hz = 18500.0;
  cfg.bitrate_bps = bitrate;
  return cfg;
}

// Synthesizes the passband signal a reader would capture: carrier times a
// reflection coefficient that follows the switch waveform, plus a strong
// unmodulated carrier (the blast), plus white noise.
rvec synthesize_capture(const phy::PhyConfig& cfg, const bitvec& payload,
                        double mod_amp, double blast_amp, double noise_rms,
                        common::Rng& rng, bool polarity = false,
                        double extra_delay_samples = 0.0) {
  phy::BackscatterModulator mod(cfg);
  const bitvec states = mod.switch_waveform(payload);
  const bitvec mask = mod.active_mask(payload.size());
  const auto delay = static_cast<std::size_t>(extra_delay_samples);
  const std::size_t n = states.size() + delay + 512;
  rvec x = dsp::make_tone(cfg.carrier_hz, cfg.fs_hz, n);
  for (std::size_t i = 0; i < n; ++i) {
    double coef = blast_amp;
    if (i >= delay && i - delay < states.size() && mask[i - delay]) {
      const double level = polarity ? (states[i - delay] ? 1.0 : -1.0)
                                    : (states[i - delay] ? 1.0 : 0.0);
      coef += mod_amp * level;
    }
    x[i] *= coef;
    x[i] += noise_rms * rng.gaussian();
  }
  return x;
}

TEST(Modulator, WaveformLengthMatchesChipCount) {
  const auto cfg = test_config();
  phy::BackscatterModulator mod(cfg);
  const bitvec payload(40, 1);
  const bitvec wave = mod.switch_waveform(payload);
  EXPECT_EQ(wave.size(), mod.waveform_length(payload.size()));
  const double spc = cfg.fs_hz / cfg.chip_rate_hz();
  const std::size_t chips = 2 * phy::BackscatterModulator::kIdleChips +
                            phy::BackscatterModulator::kSettleChips +
                            phy::fm0_preamble_chips().size() + 2 * payload.size();
  EXPECT_NEAR(static_cast<double>(wave.size()), static_cast<double>(chips) * spc,
              spc + 1);
}

TEST(Modulator, IdlePaddingIsAbsorptive) {
  const auto cfg = test_config();
  phy::BackscatterModulator mod(cfg);
  const bitvec wave = mod.switch_waveform(bitvec(8, 1));
  const bitvec mask = mod.active_mask(8);
  ASSERT_EQ(wave.size(), mask.size());
  // First and last idle chips: state 0, mask 0.
  EXPECT_EQ(wave.front(), 0);
  EXPECT_EQ(mask.front(), 0);
  EXPECT_EQ(mask.back(), 0);
}

TEST(Modulator, ActiveMaskCoversPreambleAndData) {
  const auto cfg = test_config();
  phy::BackscatterModulator mod(cfg);
  const std::size_t n_bits = 16;
  const bitvec mask = mod.active_mask(n_bits);
  std::size_t active = 0;
  for (auto m : mask) active += m;
  const double spc = cfg.fs_hz / cfg.chip_rate_hz();
  const double expect_chips =
      static_cast<double>(phy::BackscatterModulator::kSettleChips +
                          phy::fm0_preamble_chips().size() + 2 * n_bits);
  EXPECT_NEAR(static_cast<double>(active), expect_chips * spc, 2 * spc);
}

TEST(Demodulator, DecodesCleanOnOffCapture) {
  const auto cfg = test_config();
  common::Rng rng(1);
  const bitvec payload = rng.random_bits(64);
  const rvec x = synthesize_capture(cfg, payload, 0.1, 1.0, 0.0, rng);
  phy::ReaderDemodulator demod(cfg);
  const auto res = demod.demodulate(x, payload.size());
  ASSERT_TRUE(res.sync_found);
  EXPECT_EQ(res.bits, payload);
  EXPECT_GT(res.corr_peak, 0.7);
}

TEST(Demodulator, DecodesCleanPolarityCapture) {
  const auto cfg = test_config();
  common::Rng rng(2);
  const bitvec payload = rng.random_bits(64);
  const rvec x = synthesize_capture(cfg, payload, 0.1, 1.0, 0.0, rng, true);
  phy::ReaderDemodulator demod(cfg);
  const auto res = demod.demodulate(x, payload.size());
  ASSERT_TRUE(res.sync_found);
  EXPECT_EQ(res.bits, payload);
}

TEST(Demodulator, DecodesWithStrongCarrierBlast) {
  const auto cfg = test_config();
  common::Rng rng(3);
  const bitvec payload = rng.random_bits(48);
  // Blast 40 dB above the modulated component.
  const rvec x = synthesize_capture(cfg, payload, 0.01, 1.0, 0.0, rng);
  phy::ReaderDemodulator demod(cfg);
  const auto res = demod.demodulate(x, payload.size());
  ASSERT_TRUE(res.sync_found);
  EXPECT_EQ(res.bits, payload);
  EXPECT_GT(res.sic_suppression_db, 20.0);
}

TEST(Demodulator, DecodesWithUnknownDelay) {
  const auto cfg = test_config();
  common::Rng rng(4);
  const bitvec payload = rng.random_bits(32);
  const rvec x = synthesize_capture(cfg, payload, 0.1, 1.0, 0.0, rng, false, 7777.0);
  phy::ReaderDemodulator demod(cfg);
  const auto res = demod.demodulate(x, payload.size());
  ASSERT_TRUE(res.sync_found);
  EXPECT_EQ(res.bits, payload);
}

TEST(Demodulator, DecodesInModerateNoise) {
  const auto cfg = test_config();
  common::Rng rng(5);
  const bitvec payload = rng.random_bits(64);
  // Modulated component amplitude 0.05 on carrier 1.0; noise rms 0.02.
  const rvec x = synthesize_capture(cfg, payload, 0.05, 1.0, 0.02, rng);
  phy::ReaderDemodulator demod(cfg);
  const auto res = demod.demodulate(x, payload.size());
  ASSERT_TRUE(res.sync_found);
  const std::size_t errors = phy::hamming_distance(res.bits, payload);
  EXPECT_LE(errors, 2u);
}

TEST(Demodulator, NoSyncOnNoiseOnly) {
  const auto cfg = test_config();
  common::Rng rng(6);
  rvec x = dsp::make_tone(cfg.carrier_hz, cfg.fs_hz, 48000);
  for (auto& v : x) v += 0.05 * rng.gaussian();
  phy::ReaderDemodulator demod(cfg);
  const auto res = demod.demodulate(x, 32);
  EXPECT_FALSE(res.sync_found);
}

TEST(Demodulator, SnrEstimateTracksNoiseLevel) {
  const auto cfg = test_config();
  common::Rng rng(7);
  const bitvec payload = rng.random_bits(64);
  const rvec clean = synthesize_capture(cfg, payload, 0.1, 1.0, 0.001, rng);
  const rvec noisy = synthesize_capture(cfg, payload, 0.1, 1.0, 0.05, rng);
  phy::ReaderDemodulator demod(cfg);
  const auto r_clean = demod.demodulate(clean, payload.size());
  const auto r_noisy = demod.demodulate(noisy, payload.size());
  ASSERT_TRUE(r_clean.sync_found);
  ASSERT_TRUE(r_noisy.sync_found);
  EXPECT_GT(r_clean.snr_db, r_noisy.snr_db + 6.0);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const cvec& a, const cvec& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0);
}

TEST(Modem, DemodulateEqualsFrontEndThenBaseband) {
  // demodulate and to_baseband are compositions of the two halves the
  // waveform simulator calls separately (noise goes in between); each must
  // reproduce the split bit for bit, on clean, noisy, miss and coded-length
  // captures, with the canceller on and off.
  struct Capture {
    double mod_amp, noise_rms;
    bool dc_notch;
  };
  const Capture captures[] = {
      {0.1, 0.0, true}, {0.05, 0.02, true}, {0.0, 0.05, true}, {0.05, 0.01, false}};
  std::uint64_t seed = 31;
  for (const Capture& c : captures) {
    auto cfg = test_config();
    cfg.sic.enable_dc_notch = c.dc_notch;
    common::Rng rng(seed++);
    const bitvec payload = rng.random_bits(64);
    const rvec x = synthesize_capture(cfg, payload, c.mod_amp, 1.0, c.noise_rms, rng);
    const phy::ReaderDemodulator demod(cfg);

    cvec bb;
    demod.front_end(x, bb);
    cvec split = bb;
    const phy::DemodResult want = demod.demodulate_baseband(split, payload.size());
    const phy::DemodResult got = demod.demodulate(x, payload.size());
    EXPECT_EQ(got.sync_found, want.sync_found);
    EXPECT_EQ(got.bits, want.bits);
    EXPECT_TRUE(same_bits(got.corr_peak, want.corr_peak));
    EXPECT_TRUE(same_bits(got.carrier_phase_rad, want.carrier_phase_rad));
    EXPECT_TRUE(same_bits(got.snr_db, want.snr_db));
    EXPECT_TRUE(same_bits(got.sic_suppression_db, want.sic_suppression_db));
    EXPECT_EQ(got.sync_index_bb, want.sync_index_bb);
    EXPECT_TRUE(same_bits(got.channel_fit_error, want.channel_fit_error));

    // to_baseband = front_end, then the canceller (demodulate_baseband left
    // the cancelled signal in `split`).
    double suppression = 0.0;
    cvec post_sic;
    demod.to_baseband(x, post_sic, &suppression);
    EXPECT_TRUE(same_bits(post_sic, split));
    EXPECT_TRUE(same_bits(suppression, want.sic_suppression_db));
    phy::SelfInterferenceCanceller sic(cfg.sic, cfg.chip_rate_hz(), cfg.fs_baseband_hz());
    sic.process_inplace(bb);
    EXPECT_TRUE(same_bits(bb, post_sic));
  }
}

class BitrateSweep : public ::testing::TestWithParam<double> {};

TEST_P(BitrateSweep, RoundTripAtAnyBitrate) {
  const auto cfg = test_config(GetParam());
  common::Rng rng(42);
  const bitvec payload = rng.random_bits(32);
  const rvec x = synthesize_capture(cfg, payload, 0.1, 1.0, 0.0, rng);
  phy::ReaderDemodulator demod(cfg);
  const auto res = demod.demodulate(x, payload.size());
  ASSERT_TRUE(res.sync_found) << "bitrate " << GetParam();
  EXPECT_EQ(res.bits, payload) << "bitrate " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Rates, BitrateSweep,
                         ::testing::Values(100.0, 200.0, 500.0, 1000.0, 2000.0));

class UplinkCodeSweep : public ::testing::TestWithParam<phy::UplinkCode> {};

TEST_P(UplinkCodeSweep, RoundTripThroughFullChain) {
  auto cfg = test_config(500.0);
  cfg.uplink_code = GetParam();
  common::Rng rng(77);
  const bitvec payload = rng.random_bits(48);
  const rvec x = synthesize_capture(cfg, payload, 0.05, 1.0, 0.005, rng);
  phy::ReaderDemodulator demod(cfg);
  const auto res = demod.demodulate(x, payload.size());
  ASSERT_TRUE(res.sync_found);
  EXPECT_EQ(res.bits, payload);
}

TEST_P(UplinkCodeSweep, ChipsPerBitDrivesWaveformLength) {
  auto cfg = test_config(500.0);
  cfg.uplink_code = GetParam();
  phy::BackscatterModulator mod(cfg);
  const std::size_t len = mod.waveform_length(32);
  EXPECT_EQ(mod.switch_waveform(bitvec(32, 1)).size(), len);
}

INSTANTIATE_TEST_SUITE_P(Codes, UplinkCodeSweep,
                         ::testing::Values(phy::UplinkCode::kFm0,
                                           phy::UplinkCode::kMiller2,
                                           phy::UplinkCode::kMiller4));

}  // namespace
}  // namespace vab
