#include "core/reader.hpp"

#include "dsp/mixer.hpp"
#include "obs/obs.hpp"
#include "phy/pie.hpp"

namespace vab::core {

VabReader::VabReader(ReaderConfig cfg)
    : cfg_(cfg), demod_(cfg.phy), mac_(net::MacTiming{}) {}

rvec VabReader::make_downlink_waveform(const net::Frame& f) const {
  const bitvec bits = net::serialize_bits(f);
  const rvec env = phy::pie_encode_envelope(bits, cfg_.phy.fs_hz);
  rvec carrier = dsp::make_tone(cfg_.phy.carrier_hz, cfg_.phy.fs_hz, env.size());
  for (std::size_t i = 0; i < env.size(); ++i) carrier[i] *= env[i];
  return carrier;
}

rvec VabReader::make_carrier(std::size_t n) const {
  return dsp::make_tone(cfg_.phy.carrier_hz, cfg_.phy.fs_hz, n);
}

std::size_t VabReader::uplink_bits(std::size_t payload_bytes) {
  return net::wire_size(payload_bytes) * 8;
}

UplinkDecode VabReader::decode_uplink(const rvec& passband,
                                      std::size_t payload_bytes) const {
  VAB_STAGE("core.reader.decode_uplink");
  UplinkDecode out;
  out.demod = demod_.demodulate(passband, uplink_bits(payload_bytes));
  if (out.demod.sync_found) out.frame = net::parse_bits(out.demod.bits);
  return out;
}

}  // namespace vab::core
