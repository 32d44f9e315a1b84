// Unit conversions, physical constants and the strong-typedef units layer
// used across the VAB library.
//
// Underwater acoustics works in decibels referenced to 1 micropascal
// (dB re 1 uPa for pressure level, dB re 1 uPa^2/Hz for spectral density).
// All linear quantities in this library are SI: pascals, meters, seconds,
// hertz, watts.
//
// The strong types (Db, SnrDb/SnrLinear, Hz, SampleRateHz, Seconds, Meters,
// DbPerM, PowerW, SampleCount) exist to make the two bug classes that have
// actually bitten figure code unrepresentable: dB-vs-linear mixups and
// seconds-vs-samples mixups. Each wraps exactly one double (or size_t for
// SampleCount) with an *explicit* constructor, a `raw()` escape hatch, and
// only the arithmetic that is dimensionally meaningful, all constexpr, so
// the wrappers are zero-overhead — layout identity is static_assert'ed at
// the bottom of this header. Scale changes are never implicit: crossing the
// dB/linear boundary spells `to_linear()` / `to_db()`, and crossing the
// seconds/samples boundary spells `samples_floor/ceil/round()` or
// `duration_of()`. `raw()` is the one sanctioned exit; see DESIGN.md
// ("Units & domains") for when using it is acceptable.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <type_traits>

namespace vab::common {

/// Reference pressure for underwater sound levels, 1 micropascal in Pa.
inline constexpr double kRefPressurePa = 1e-6;

/// Nominal speed of sound in water (m/s); profiles refine this.
inline constexpr double kNominalSoundSpeed = 1500.0;

/// Characteristic acoustic impedance of seawater (rho * c), Pa*s/m.
inline constexpr double kWaterAcousticImpedance = 1.5e6;

inline constexpr double kPi = 3.14159265358979323846;
inline constexpr double kTwoPi = 2.0 * kPi;

/// Power ratio to decibels. `ratio` must be > 0.
inline double db_from_power_ratio(double ratio) { return 10.0 * std::log10(ratio); }

/// Amplitude (field quantity) ratio to decibels.
inline double db_from_amplitude_ratio(double ratio) { return 20.0 * std::log10(ratio); }

/// Decibels to linear power ratio.
inline double power_ratio_from_db(double db) { return std::pow(10.0, db / 10.0); }

/// Decibels to linear amplitude ratio.
inline double amplitude_ratio_from_db(double db) { return std::pow(10.0, db / 20.0); }

/// RMS pressure (Pa) -> sound pressure level in dB re 1 uPa.
inline double spl_from_pressure(double rms_pa) {
  return db_from_amplitude_ratio(rms_pa / kRefPressurePa);
}

/// Sound pressure level in dB re 1 uPa -> RMS pressure (Pa).
inline double pressure_from_spl(double spl_db) {
  return kRefPressurePa * amplitude_ratio_from_db(spl_db);
}

/// Acoustic wavelength (m) at frequency `f_hz` for sound speed `c`.
inline double wavelength(double f_hz, double c = kNominalSoundSpeed) { return c / f_hz; }

/// Acoustic wavenumber (rad/m).
inline double wavenumber(double f_hz, double c = kNominalSoundSpeed) {
  return kTwoPi * f_hz / c;
}

inline double deg_to_rad(double deg) { return deg * kPi / 180.0; }
inline double rad_to_deg(double rad) { return rad * 180.0 / kPi; }

/// Wraps an angle to (-pi, pi].
double wrap_angle(double rad);

// ---------------------------------------------------------------------------
// Strong-typedef units layer.
// ---------------------------------------------------------------------------

namespace units_detail {

/// CRTP base: one double, explicit construction, `raw()` escape hatch and
/// total ordering. Derived types opt into arithmetic via the mixins below so
/// only dimensionally meaningful operations exist.
template <class Derived>
struct StrongDouble {
  double v = 0.0;

  constexpr StrongDouble() = default;
  constexpr explicit StrongDouble(double value) : v(value) {}

  /// The sanctioned exit back to raw double (interior math, printing).
  [[nodiscard]] constexpr double raw() const { return v; }
  [[nodiscard]] bool is_finite() const { return std::isfinite(v); }

  friend constexpr bool operator==(Derived a, Derived b) { return a.v == b.v; }
  friend constexpr bool operator!=(Derived a, Derived b) { return a.v != b.v; }
  friend constexpr bool operator<(Derived a, Derived b) { return a.v < b.v; }
  friend constexpr bool operator<=(Derived a, Derived b) { return a.v <= b.v; }
  friend constexpr bool operator>(Derived a, Derived b) { return a.v > b.v; }
  friend constexpr bool operator>=(Derived a, Derived b) { return a.v >= b.v; }
};

/// D + D, D - D, unary minus: quantities that form a vector space.
template <class Derived>
struct Additive {
  friend constexpr Derived operator+(Derived a, Derived b) {
    return Derived{a.v + b.v};
  }
  friend constexpr Derived operator-(Derived a, Derived b) {
    return Derived{a.v - b.v};
  }
  friend constexpr Derived operator-(Derived a) { return Derived{-a.v}; }
  friend constexpr Derived& operator+=(Derived& a, Derived b) {
    a.v += b.v;
    return a;
  }
  friend constexpr Derived& operator-=(Derived& a, Derived b) {
    a.v -= b.v;
    return a;
  }
};

/// D * scalar, D / scalar, D / D -> dimensionless ratio.
template <class Derived>
struct Scalable {
  friend constexpr Derived operator*(Derived a, double s) { return Derived{a.v * s}; }
  friend constexpr Derived operator*(double s, Derived a) { return Derived{s * a.v}; }
  friend constexpr Derived operator/(Derived a, double s) { return Derived{a.v / s}; }
  friend constexpr double operator/(Derived a, Derived b) { return a.v / b.v; }
};

}  // namespace units_detail

struct SnrDb;
struct SnrLinear;

/// A decibel quantity on the power scale: levels (SPL, NSD + bandwidth),
/// gains and losses (TL, TS, fading, margins). Adding two Db composes gains;
/// there is deliberately no implicit path to a linear ratio.
struct Db : units_detail::StrongDouble<Db>,
            units_detail::Additive<Db>,
            units_detail::Scalable<Db> {
  using StrongDouble::StrongDouble;

  /// 10^(v/10): this dB value as a linear *power* ratio.
  [[nodiscard]] double to_power_ratio() const { return std::pow(10.0, v / 10.0); }
  /// 10^(v/20): this dB value as a linear *amplitude* ratio.
  [[nodiscard]] double to_amplitude_ratio() const { return std::pow(10.0, v / 20.0); }
  [[nodiscard]] static Db from_power_ratio(double ratio) {
    return Db{10.0 * std::log10(ratio)};
  }
};

/// Signal-to-noise ratio in dB. Distinct from Db the way a point is distinct
/// from an offset: SnrDb +/- Db (applying a gain or margin) stays SnrDb,
/// SnrDb - SnrDb (comparing operating points) is a Db margin, and SnrDb +
/// SnrDb does not exist. Crossing to the linear scale spells to_linear().
struct SnrDb : units_detail::StrongDouble<SnrDb> {
  using StrongDouble::StrongDouble;

  [[nodiscard]] SnrLinear to_linear() const;

  friend constexpr SnrDb operator+(SnrDb s, Db g) { return SnrDb{s.v + g.raw()}; }
  friend constexpr SnrDb operator-(SnrDb s, Db g) { return SnrDb{s.v - g.raw()}; }
  friend constexpr Db operator-(SnrDb a, SnrDb b) { return Db{a.v - b.v}; }
  friend constexpr SnrDb& operator+=(SnrDb& s, Db g) {
    s.v += g.raw();
    return s;
  }
  friend constexpr SnrDb& operator-=(SnrDb& s, Db g) {
    s.v -= g.raw();
    return s;
  }
};

/// Linear-scale (power-ratio) SNR — what BER curves consume. Only explicit
/// conversion reaches the dB scale.
struct SnrLinear : units_detail::StrongDouble<SnrLinear>,
                   units_detail::Scalable<SnrLinear> {
  using StrongDouble::StrongDouble;

  [[nodiscard]] SnrDb to_db() const { return SnrDb{10.0 * std::log10(v)}; }
};

inline SnrLinear SnrDb::to_linear() const { return SnrLinear{std::pow(10.0, v / 10.0)}; }

/// A frequency in hertz (carrier, bandwidth, chip rate).
struct Hz : units_detail::StrongDouble<Hz>,
            units_detail::Additive<Hz>,
            units_detail::Scalable<Hz> {
  using StrongDouble::StrongDouble;

  [[nodiscard]] constexpr double khz() const { return v / 1000.0; }
  [[nodiscard]] static constexpr Hz from_khz(double f_khz) { return Hz{f_khz * 1000.0}; }
};

/// A sampling rate. Deliberately not interchangeable with Hz: a carrier and
/// a converter clock answer different questions, and the seconds<->samples
/// conversions below only accept this type.
struct SampleRateHz : units_detail::StrongDouble<SampleRateHz>,
                      units_detail::Scalable<SampleRateHz> {
  using StrongDouble::StrongDouble;
};

struct Seconds : units_detail::StrongDouble<Seconds>,
                 units_detail::Additive<Seconds>,
                 units_detail::Scalable<Seconds> {
  using StrongDouble::StrongDouble;
};

struct Meters : units_detail::StrongDouble<Meters>,
                units_detail::Additive<Meters>,
                units_detail::Scalable<Meters> {
  using StrongDouble::StrongDouble;

  [[nodiscard]] constexpr double km() const { return v / 1000.0; }
};

/// Absorption coefficient. Stored per meter; the classic tables quote dB/km,
/// so a named per-km constructor avoids the silent 1000x.
struct DbPerM : units_detail::StrongDouble<DbPerM>, units_detail::Scalable<DbPerM> {
  using StrongDouble::StrongDouble;

  [[nodiscard]] static constexpr DbPerM per_km(double db_per_km) {
    return DbPerM{db_per_km / 1000.0};
  }
  [[nodiscard]] constexpr double raw_per_km() const { return v * 1000.0; }
};

struct PowerW : units_detail::StrongDouble<PowerW>,
                units_detail::Additive<PowerW>,
                units_detail::Scalable<PowerW> {
  using StrongDouble::StrongDouble;
};

/// An integral number of samples. Arithmetic stays in sample space; crossing
/// to or from Seconds goes through the explicit conversions below, which
/// force a rounding-mode decision at every boundary.
struct SampleCount {
  std::size_t v = 0;

  constexpr SampleCount() = default;
  constexpr explicit SampleCount(std::size_t value) : v(value) {}

  [[nodiscard]] constexpr std::size_t raw() const { return v; }

  friend constexpr bool operator==(SampleCount a, SampleCount b) { return a.v == b.v; }
  friend constexpr bool operator!=(SampleCount a, SampleCount b) { return a.v != b.v; }
  friend constexpr bool operator<(SampleCount a, SampleCount b) { return a.v < b.v; }
  friend constexpr bool operator<=(SampleCount a, SampleCount b) { return a.v <= b.v; }
  friend constexpr bool operator>(SampleCount a, SampleCount b) { return a.v > b.v; }
  friend constexpr bool operator>=(SampleCount a, SampleCount b) { return a.v >= b.v; }
  friend constexpr SampleCount operator+(SampleCount a, SampleCount b) {
    return SampleCount{a.v + b.v};
  }
  friend constexpr SampleCount operator-(SampleCount a, SampleCount b) {
    return SampleCount{a.v - b.v};
  }
};

// Dimensional cross products.

/// absorption coefficient x distance = loss.
constexpr Db operator*(DbPerM a, Meters r) { return Db{a.raw() * r.raw()}; }
constexpr Db operator*(Meters r, DbPerM a) { return Db{r.raw() * a.raw()}; }

/// frequency x duration = cycles (dimensionless).
constexpr double operator*(Hz f, Seconds t) { return f.raw() * t.raw(); }
constexpr double operator*(Seconds t, Hz f) { return t.raw() * f.raw(); }

/// sample rate x duration = fractional sample index span.
constexpr double operator*(SampleRateHz fs, Seconds t) { return fs.raw() * t.raw(); }
constexpr double operator*(Seconds t, SampleRateHz fs) { return t.raw() * fs.raw(); }

/// samples per cycle of `f` when sampled at `fs`.
constexpr double operator/(SampleRateHz fs, Hz f) { return fs.raw() / f.raw(); }
/// normalized frequency (cycles per sample).
constexpr double operator/(Hz f, SampleRateHz fs) { return f.raw() / fs.raw(); }

// Seconds <-> samples: every crossing names its rounding mode.

inline SampleCount samples_floor(Seconds t, SampleRateHz fs) {
  return SampleCount{static_cast<std::size_t>(t.raw() * fs.raw())};
}
inline SampleCount samples_ceil(Seconds t, SampleRateHz fs) {
  return SampleCount{static_cast<std::size_t>(std::ceil(t.raw() * fs.raw()))};
}
inline SampleCount samples_round(Seconds t, SampleRateHz fs) {
  return SampleCount{static_cast<std::size_t>(std::llround(t.raw() * fs.raw()))};
}
constexpr Seconds duration_of(SampleCount n, SampleRateHz fs) {
  return Seconds{static_cast<double>(n.raw()) / fs.raw()};
}

// Zero-overhead proof: each wrapper is layout-identical to the double (or
// size_t) it replaces and trivially passes in registers, so migrating an API
// boundary cannot change codegen, ABI or struct layout.
namespace units_detail {
template <class T, class Raw>
inline constexpr bool layout_identical =
    sizeof(T) == sizeof(Raw) && alignof(T) == alignof(Raw) &&
    std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T> &&
    std::is_standard_layout_v<T> && std::is_nothrow_default_constructible_v<T>;
}  // namespace units_detail
static_assert(units_detail::layout_identical<Db, double>);
static_assert(units_detail::layout_identical<SnrDb, double>);
static_assert(units_detail::layout_identical<SnrLinear, double>);
static_assert(units_detail::layout_identical<Hz, double>);
static_assert(units_detail::layout_identical<SampleRateHz, double>);
static_assert(units_detail::layout_identical<Seconds, double>);
static_assert(units_detail::layout_identical<Meters, double>);
static_assert(units_detail::layout_identical<DbPerM, double>);
static_assert(units_detail::layout_identical<PowerW, double>);
static_assert(units_detail::layout_identical<SampleCount, std::size_t>);
// No accidental cross-unit or from-double implicit conversions.
static_assert(!std::is_convertible_v<double, Db>);
static_assert(!std::is_convertible_v<Db, double>);
static_assert(!std::is_convertible_v<Db, SnrDb>);
static_assert(!std::is_convertible_v<SnrDb, SnrLinear>);
static_assert(!std::is_convertible_v<Hz, SampleRateHz>);
static_assert(!std::is_convertible_v<Seconds, Meters>);

/// Unit literals for tests and tables: `6.0_dB`, `18500.0_hz`, `1.5_m` ...
namespace unit_literals {
constexpr Db operator""_dB(long double x) { return Db{static_cast<double>(x)}; }
constexpr SnrDb operator""_snr_dB(long double x) { return SnrDb{static_cast<double>(x)}; }
constexpr Hz operator""_hz(long double x) { return Hz{static_cast<double>(x)}; }
constexpr Hz operator""_khz(long double x) { return Hz{static_cast<double>(x) * 1000.0}; }
constexpr Seconds operator""_s(long double x) { return Seconds{static_cast<double>(x)}; }
constexpr Seconds operator""_ms(long double x) {
  return Seconds{static_cast<double>(x) / 1000.0};
}
constexpr Meters operator""_m(long double x) { return Meters{static_cast<double>(x)}; }
constexpr Meters operator""_km(long double x) {
  return Meters{static_cast<double>(x) * 1000.0};
}
constexpr PowerW operator""_w(long double x) { return PowerW{static_cast<double>(x)}; }
}  // namespace unit_literals

}  // namespace vab::common
