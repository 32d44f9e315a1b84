#include "phy/ber.hpp"

#include <cmath>

namespace vab::phy {

double q_function(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

double ber_bpsk(double ebn0) { return q_function(std::sqrt(std::max(2.0 * ebn0, 0.0))); }

double ber_fm0(double snr_chip) {
  // An FM0 bit decision coherently combines its two chips, doubling the
  // effective SNR of the antipodal comparison.
  return ber_bpsk(std::max(snr_chip, 0.0));
}

}  // namespace vab::phy
