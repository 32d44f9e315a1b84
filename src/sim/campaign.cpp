#include "sim/campaign.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "obs/manifest.hpp"
#include "obs/obs.hpp"

namespace vab::sim {

namespace {

constexpr std::string_view kCkptMagic = "vab-campaign-ckpt-v1";

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

struct CkptHeader {
  std::string kind;
  std::string key_hex;  // fnv1a64 of CampaignConfig::key
  ShardSpec shard;
  std::size_t begin = 0;
  std::size_t end = 0;

  std::string line() const {
    std::ostringstream os;
    os << kCkptMagic << " kind=" << kind << " key=" << key_hex
       << " shard=" << shard.str() << " begin=" << begin << " end=" << end;
    return os.str();
  }
};

/// Digest over the record section exactly as it appears in the file.
std::uint64_t records_digest(const std::vector<std::string>& records) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::string& r : records) {
    const std::string line = "r " + r + "\n";
    for (const char c : line) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// Atomic publish: a reader never observes a partially written file — it
/// either sees the old state (or nothing) or the complete renamed file.
void write_checkpoint(const std::string& path, const CkptHeader& header,
                      const std::vector<std::string>& records) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  if (ec) return;  // checkpointing is best-effort; the campaign still runs
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;
    out << header.line() << "\n";
    out << "manifest " << obs::manifest_json() << "\n";
    for (const std::string& r : records) out << "r " << r << "\n";
    out << "digest " << hex64(records_digest(records)) << "\n";
    if (!out) return;
  }
  std::filesystem::rename(tmp, path, ec);
}

/// Returns the record payloads when `path` holds a complete checkpoint for
/// exactly `want` (same kind, campaign key, shard and trial range, intact
/// digest, full record count); nullopt on any mismatch so the caller
/// recomputes.
std::optional<std::vector<std::string>> read_checkpoint(const std::string& path,
                                                        const CkptHeader& want) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != want.line()) return std::nullopt;
  std::vector<std::string> records;
  records.reserve(want.end - want.begin);
  bool digest_ok = false;
  while (std::getline(in, line)) {
    if (line.rfind("manifest ", 0) == 0) continue;  // informational only
    if (line.rfind("r ", 0) == 0) {
      if (digest_ok) return std::nullopt;  // records after the digest line
      records.push_back(line.substr(2));
      continue;
    }
    if (line.rfind("digest ", 0) == 0) {
      if (line.substr(7) != hex64(records_digest(records))) return std::nullopt;
      digest_ok = true;
      continue;
    }
    return std::nullopt;  // unknown line
  }
  if (!digest_ok || records.size() != want.end - want.begin) return std::nullopt;
  return records;
}

// Strict field parsers for checkpoint records and shard specs. Each accepts
// one whole token and nothing else (no leading whitespace, no trailing
// characters, no sign on a count), so a malformed record makes its shard
// recompute instead of being trusted.

/// Splits a record at single spaces; empty fields survive (and fail to parse).
std::vector<std::string_view> split_fields(std::string_view text) {
  std::vector<std::string_view> fields;
  for (std::size_t start = 0;;) {
    const std::size_t sp = text.find(' ', start);
    fields.push_back(text.substr(start, sp - start));
    if (sp == std::string_view::npos) return fields;
    start = sp + 1;
  }
}

/// Non-negative decimal count: digits only, in range of std::size_t.
bool parse_count(std::string_view s, std::size_t& v) {
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v);
  return ec == std::errc{} && p == end;
}

/// Flag: exactly "0" or "1".
bool parse_flag(std::string_view s, bool& v) {
  v = s == "1";
  return v || s == "0";
}

/// One whole double token; the encoder writes %a (hex float or inf/nan).
bool parse_real(std::string_view s, double& v) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s.front()))) return false;
  const std::string z(s);
  char* end = nullptr;
  v = std::strtod(z.c_str(), &end);
  return end == z.c_str() + z.size();
}

// Per-outcome text codecs. Doubles use %a: hex floats round-trip every
// finite value (and inf/nan spellings) exactly, so a resumed merge is
// bit-identical to the uninterrupted run.

std::string encode_outcome(const WaveformTrialOutcome& s) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%zu %d %d %a %a %a", s.bit_errors,
                s.sync_found ? 1 : 0, s.frame_ok ? 1 : 0, s.snr_db, s.corr_peak,
                s.sic_suppression_db);
  return buf;
}

/// A frame can only decode after sync, so frame_ok without sync_found is
/// rejected along with malformed fields.
bool decode_outcome(const std::string& text, WaveformTrialOutcome& s) {
  const auto f = split_fields(text);
  return f.size() == 6 && parse_count(f[0], s.bit_errors) &&
         parse_flag(f[1], s.sync_found) && parse_flag(f[2], s.frame_ok) &&
         parse_real(f[3], s.snr_db) && parse_real(f[4], s.corr_peak) &&
         parse_real(f[5], s.sic_suppression_db) && (s.sync_found || !s.frame_ok);
}

std::string encode_outcome(const LinkBudget::BerTrialOutcome& s) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%zu %a", s.errors, s.snr_db);
  return buf;
}

bool decode_outcome(const std::string& text, LinkBudget::BerTrialOutcome& s) {
  const auto f = split_fields(text);
  return f.size() == 2 && parse_count(f[0], s.errors) && parse_real(f[1], s.snr_db);
}

std::string encode_outcome(double loss) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", loss);
  return buf;
}

bool decode_outcome(const std::string& text, double& loss) {
  return parse_real(text, loss);
}

/// Shared shard driver: resume this shard from its checkpoint when a valid
/// one exists, otherwise run `compute(global_trial) -> Outcome` across the
/// shard's range via the parallel engine and checkpoint the raw outcomes.
template <typename Outcome, typename Compute>
ShardResult<Outcome> run_shard(const std::string& kind, std::size_t n_trials,
                               const CampaignConfig& cfg, Compute&& compute) {
  static const obs::Counter resumed = obs::counter("campaign.shards_resumed");
  static const obs::Counter computed = obs::counter("campaign.shards_computed");
  ShardResult<Outcome> result;
  result.shard = cfg.shard;
  const auto [begin, end] = cfg.shard.range(n_trials);
  result.begin = begin;
  result.end = end;

  CkptHeader header{kind, hex64(fnv1a64(cfg.key)), cfg.shard, begin, end};
  const std::string path =
      cfg.dir.empty() ? std::string{} : checkpoint_path(cfg, kind);
  if (!path.empty()) {
    if (auto records = read_checkpoint(path, header)) {
      std::vector<Outcome> outcomes(records->size());
      bool all_ok = true;
      for (std::size_t i = 0; i < records->size() && all_ok; ++i)
        all_ok = decode_outcome((*records)[i], outcomes[i]);
      if (all_ok) {
        result.outcomes = std::move(outcomes);
        result.from_checkpoint = true;
        resumed.inc();
        return result;
      }
    }
  }

  result.outcomes.resize(end - begin);
  common::parallel_for(begin, end, [&](std::size_t t) {
    result.outcomes[t - begin] = compute(t);
  });
  computed.inc();

  if (!path.empty()) {
    std::vector<std::string> records;
    records.reserve(result.outcomes.size());
    for (const Outcome& s : result.outcomes) records.push_back(encode_outcome(s));
    write_checkpoint(path, header, records);
  }
  return result;
}

/// Places every shard's outcomes by global trial index, requiring exact
/// single coverage of [0, n_trials).
template <typename Outcome>
std::vector<Outcome> assemble(const std::vector<ShardResult<Outcome>>& shards,
                              std::size_t n_trials) {
  std::vector<Outcome> slots(n_trials);
  std::vector<char> seen(n_trials, 0);
  for (const auto& sh : shards) {
    if (sh.end < sh.begin || sh.end > n_trials ||
        sh.outcomes.size() != sh.end - sh.begin)
      throw std::runtime_error("campaign merge: malformed shard " +
                               sh.shard.str());
    for (std::size_t t = sh.begin; t < sh.end; ++t) {
      if (seen[t])
        throw std::runtime_error("campaign merge: trial " + std::to_string(t) +
                                 " covered twice");
      seen[t] = 1;
      slots[t] = sh.outcomes[t - sh.begin];
    }
  }
  for (std::size_t t = 0; t < n_trials; ++t)
    if (!seen[t])
      throw std::runtime_error("campaign merge: missing trial " +
                               std::to_string(t) +
                               " (shard not run or checkpoint lost)");
  return slots;
}

}  // namespace

ShardSpec ShardSpec::parse(const std::string& text) {
  ShardSpec spec;
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos ||
      !parse_count(std::string_view(text).substr(0, slash), spec.index) ||
      !parse_count(std::string_view(text).substr(slash + 1), spec.count))
    throw std::invalid_argument("shard spec must be \"i/n\", got \"" + text +
                                "\"");
  if (spec.count == 0 || spec.index >= spec.count)
    throw std::invalid_argument("shard spec needs i < n, n >= 1, got \"" +
                                text + "\"");
  return spec;
}

void record_shard_manifest(const ShardSpec& shard) {
  obs::set_manifest("shard", shard.str());
  obs::set_manifest("shard_index", std::to_string(shard.index));
  obs::set_manifest("shard_count", std::to_string(shard.count));
}

std::string checkpoint_path(const CampaignConfig& cfg, const std::string& kind) {
  return cfg.dir + "/" + (kind == "batch" ? "waveform" : kind) + "-" +
         hex64(fnv1a64(cfg.key)) + "-" + std::to_string(cfg.shard.index) + "of" +
         std::to_string(cfg.shard.count) + ".ckpt";
}

WaveformShardResult run_waveform_batch_shard(const std::vector<WaveformJob>& jobs,
                                             const CampaignConfig& cfg) {
  VAB_STAGE("campaign.waveform_shard");
  std::vector<std::size_t> offsets(jobs.size() + 1, 0);
  for (std::size_t j = 0; j < jobs.size(); ++j)
    offsets[j + 1] = offsets[j] + jobs[j].trials;
  const std::size_t total = offsets.back();
  return run_shard<WaveformTrialOutcome>("waveform", total, cfg, [&](std::size_t flat) {
    const std::size_t j = static_cast<std::size_t>(
                              std::upper_bound(offsets.begin(), offsets.end(), flat) -
                              offsets.begin()) -
                          1;
    return run_waveform_trial(jobs[j].scenario, jobs[j].payload_bits, jobs[j].rng,
                              flat - offsets[j]);
  });
}

std::vector<WaveformStats> merge_waveform_batch_campaign(
    const std::vector<WaveformShardResult>& shards,
    const std::vector<WaveformJob>& jobs) {
  std::size_t total = 0;
  for (const WaveformJob& job : jobs) total += job.trials;
  const auto slots = assemble(shards, total);
  std::vector<WaveformStats> out;
  out.reserve(jobs.size());
  std::size_t offset = 0;
  for (const WaveformJob& job : jobs) {
    out.push_back(fold_waveform_trials(slots.data() + offset, job.trials,
                                       job.payload_bits));
    offset += job.trials;
  }
  return out;
}

BerShardResult run_linkbudget_shard(const LinkBudget& budget, common::Meters range,
                                    std::size_t trials, std::size_t bits_per_trial,
                                    const common::Rng& rng,
                                    const CampaignConfig& cfg) {
  VAB_STAGE("campaign.linkbudget_shard");
  return run_shard<LinkBudget::BerTrialOutcome>(
      "linkbudget", trials, cfg, [&](std::size_t t) {
        return budget.monte_carlo_trial(range, bits_per_trial, rng, t);
      });
}

LinkBudget::BerStats merge_linkbudget_campaign(
    const std::vector<BerShardResult>& shards, std::size_t trials,
    std::size_t bits_per_trial) {
  const auto slots = assemble(shards, trials);
  return LinkBudget::fold_ber_trials(slots.data(), trials, bits_per_trial);
}

MismatchShardResult run_mismatch_shard(const vanatta::VanAttaConfig& array_cfg,
                                       double theta_rad, common::Hz f,
                                       double sigma_phase_rad,
                                       common::Db sigma_gain,
                                       std::size_t trials, const common::Rng& rng,
                                       const CampaignConfig& cfg) {
  VAB_STAGE("campaign.mismatch_shard");
  const double f_hz = f.raw();
  const double sigma_gain_db = sigma_gain.raw();
  const vanatta::VanAttaArray clean(array_cfg);
  const double clean_gain = clean.monostatic_gain_db(theta_rad, f_hz);
  return run_shard<double>("mismatch", trials, cfg, [&](std::size_t t) {
    return vanatta::mismatch_trial(array_cfg, theta_rad, f_hz, sigma_phase_rad,
                                   sigma_gain_db, clean_gain, rng, t);
  });
}

vanatta::MismatchResult merge_mismatch_campaign(
    const std::vector<MismatchShardResult>& shards, std::size_t trials) {
  const auto slots = assemble(shards, trials);
  rvec losses(slots.begin(), slots.end());
  return vanatta::fold_mismatch_losses(losses);
}

}  // namespace vab::sim
