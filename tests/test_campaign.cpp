// Distributed-campaign correctness: shard/merge bit-identity against the
// in-process runners at several thread counts and shard topologies,
// checkpoint round-trip and resume-after-interrupt semantics, rejection of
// stale/corrupt/mismatched checkpoint files, and resumption from checkpoint
// files checked in under tests/data (the on-disk format is pinned).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "sim/campaign.hpp"
#include "sim/scenario.hpp"

namespace vab {
namespace {

namespace fs = std::filesystem;

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vab-campaign-" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override {
    common::set_thread_count(0);
    fs::remove_all(dir_);
  }
  std::string dir() const { return dir_.string(); }

 private:
  fs::path dir_;
};

sim::Scenario fast_scenario() {
  sim::Scenario s = sim::vab_river_scenario();
  s.range_m = 60.0;
  return s;
}

sim::CampaignConfig campaign(const std::string& dir, const std::string& key,
                             std::size_t index, std::size_t count) {
  sim::CampaignConfig cfg;
  cfg.dir = dir;
  cfg.key = key;
  cfg.shard.index = index;
  cfg.shard.count = count;
  return cfg;
}

/// One waveform job: a single-scenario campaign is a one-job batch.
std::vector<sim::WaveformJob> one_job(std::size_t trials, std::size_t bits,
                                      std::uint64_t seed) {
  return {sim::WaveformJob{fast_scenario(), trials, bits, common::Rng(seed)}};
}

bool same_stats(const sim::WaveformStats& a, const sim::WaveformStats& b) {
  return a.trials == b.trials && a.frames_synced == b.frames_synced &&
         a.frames_ok == b.frames_ok && a.total_bits == b.total_bits &&
         a.bit_errors == b.bit_errors && a.mean_snr_db == b.mean_snr_db &&
         a.mean_corr_peak == b.mean_corr_peak &&
         a.mean_sic_suppression_db == b.mean_sic_suppression_db;
}

TEST(ShardSpec, ParsesAndValidates) {
  const auto s = sim::ShardSpec::parse("2/8");
  EXPECT_EQ(s.index, 2u);
  EXPECT_EQ(s.count, 8u);
  EXPECT_EQ(s.str(), "2/8");
  EXPECT_THROW(sim::ShardSpec::parse("8/8"), std::invalid_argument);
  EXPECT_THROW(sim::ShardSpec::parse("0/0"), std::invalid_argument);
  EXPECT_THROW(sim::ShardSpec::parse("nope"), std::invalid_argument);
  EXPECT_THROW(sim::ShardSpec::parse("1/2x"), std::invalid_argument);
  for (const char* bad : {"0/-1", "-1/2", " 1/2", "1/ 2", "+1/2"})
    EXPECT_THROW(sim::ShardSpec::parse(bad), std::invalid_argument) << bad;
}

TEST(ShardSpec, RangesPartitionTheTrialSpaceExactly) {
  for (const std::size_t n : {0u, 1u, 7u, 16u, 100u, 101u}) {
    for (const std::size_t count : {1u, 2u, 3u, 8u, 17u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t i = 0; i < count; ++i) {
        const auto [b, e] = common::split_range(n, i, count);
        EXPECT_EQ(b, prev_end);
        EXPECT_LE(b, e);
        covered += e - b;
        prev_end = e;
      }
      EXPECT_EQ(prev_end, n);
      EXPECT_EQ(covered, n);
    }
  }
}

TEST_F(CampaignTest, WaveformMergeMatchesDirectRunAcrossThreadsAndShards) {
  const auto jobs = one_job(12, 32, 42);
  common::set_thread_count(1);
  const sim::WaveformStats direct = sim::run_waveform_batch(jobs)[0];

  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const std::size_t count : {1u, 3u, 5u}) {
      common::set_thread_count(threads);
      std::vector<sim::WaveformShardResult> shards;
      for (std::size_t i = 0; i < count; ++i)
        shards.push_back(
            sim::run_waveform_batch_shard(jobs, campaign("", "k", i, count)));
      const auto merged = sim::merge_waveform_batch_campaign(shards, jobs)[0];
      EXPECT_TRUE(same_stats(direct, merged))
          << "threads=" << threads << " shards=" << count;
    }
  }
}

TEST_F(CampaignTest, InterruptedCampaignResumesBitIdentical) {
  // "Interrupt": only shard 0 of 3 completes and checkpoints. The resumed
  // sweep must load shard 0 from disk (not recompute) and produce stats
  // bit-identical to an uninterrupted single-shard run.
  const auto jobs = one_job(9, 32, 7);
  common::set_thread_count(2);

  const auto first = sim::run_waveform_batch_shard(jobs, campaign(dir(), "key", 0, 3));
  EXPECT_FALSE(first.from_checkpoint);
  const std::string ckpt = sim::checkpoint_path(campaign(dir(), "key", 0, 3), "waveform");
  ASSERT_TRUE(fs::exists(ckpt));
  // Freeze the file's bytes: if the resume recomputed instead of loading,
  // from_checkpoint would be false below.

  std::vector<sim::WaveformShardResult> shards;
  for (std::size_t i = 0; i < 3; ++i)
    shards.push_back(sim::run_waveform_batch_shard(jobs, campaign(dir(), "key", i, 3)));
  EXPECT_TRUE(shards[0].from_checkpoint);
  EXPECT_FALSE(shards[1].from_checkpoint);

  common::set_thread_count(1);
  const auto direct = sim::run_waveform_batch(one_job(9, 32, 7))[0];
  EXPECT_TRUE(same_stats(direct, sim::merge_waveform_batch_campaign(shards, jobs)[0]));
}

TEST_F(CampaignTest, CheckpointRejectedOnCorruptionTruncationOrWrongKey) {
  const auto jobs = one_job(6, 32, 11);
  const auto cfg = campaign(dir(), "key-a", 0, 2);
  sim::run_waveform_batch_shard(jobs, cfg);
  const std::string path = sim::checkpoint_path(cfg, "waveform");
  ASSERT_TRUE(fs::exists(path));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();

  // A different campaign key maps to a different file entirely.
  const auto other = campaign(dir(), "key-b", 0, 2);
  EXPECT_NE(sim::checkpoint_path(other, "waveform"), path);
  EXPECT_FALSE(sim::run_waveform_batch_shard(jobs, other).from_checkpoint);

  // Flip one record byte: digest mismatch, recompute.
  std::string corrupt = content;
  const auto pos = corrupt.find("\nr ");
  ASSERT_NE(pos, std::string::npos);
  corrupt[pos + 3] = corrupt[pos + 3] == 'z' ? 'y' : 'z';
  std::ofstream(path, std::ios::trunc) << corrupt;
  EXPECT_FALSE(sim::run_waveform_batch_shard(jobs, cfg).from_checkpoint);

  // Truncate after the header: missing records, recompute.
  std::ofstream(path, std::ios::trunc) << content.substr(0, content.find('\n') + 1);
  EXPECT_FALSE(sim::run_waveform_batch_shard(jobs, cfg).from_checkpoint);

  // Intact file is accepted again.
  std::ofstream(path, std::ios::trunc) << content;
  EXPECT_TRUE(sim::run_waveform_batch_shard(jobs, cfg).from_checkpoint);
}

// Rewrites the checkpoint at `path` with its first record replaced and the
// digest line recomputed over the new records, so the file is intact in
// every respect except the record's content.
void replace_first_record(const std::string& path, const std::string& record) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  std::uint64_t h = 14695981039346656037ULL;
  bool replaced = false;
  for (std::string& line : lines) {
    if (line.rfind("r ", 0) == 0) {
      if (!replaced) line = "r " + record;
      replaced = true;
      for (const char c : line + "\n") {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
      }
    } else if (line.rfind("digest ", 0) == 0) {
      char buf[17];
      std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
      line = std::string("digest ") + buf;
    }
  }
  ASSERT_TRUE(replaced);
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) out << line << "\n";
}

TEST_F(CampaignTest, CheckpointWithMalformedRecordRecomputes) {
  const auto jobs = one_job(6, 32, 13);
  common::set_thread_count(1);
  const sim::WaveformStats direct = sim::run_waveform_batch(jobs)[0];

  const auto cfg = campaign(dir(), "key", 0, 2);
  const std::string path = sim::checkpoint_path(cfg, "waveform");
  const auto first = sim::run_waveform_batch_shard(jobs, cfg);
  ASSERT_FALSE(first.from_checkpoint);

  // Control: a rewritten file holding the shard's own first record (as the
  // encoder writes it) resumes, so only the record content is under test.
  std::ifstream in(path);
  std::string own;
  while (std::getline(in, own) && own.rfind("r ", 0) != 0) {
  }
  in.close();
  ASSERT_EQ(own.rfind("r ", 0), 0u);
  replace_first_record(path, own.substr(2));
  EXPECT_TRUE(sim::run_waveform_batch_shard(jobs, cfg).from_checkpoint);

  const std::string reals = " 0x1p+0 0x1p+0 0x1p+0";
  const std::vector<std::string> bad_records = {
      "-1 7 1" + reals + " junk",  // negative count, flag 7, trailing junk
      "-1 1 1" + reals,            // negative count
      "+3 1 0" + reals,            // signed count
      "3 7 0" + reals,             // flag other than 0/1
      "3 1 -0" + reals,            // signed flag
      "0 0 1" + reals,             // frame_ok without sync_found
      "3 1 0" + reals + " junk",   // trailing field
      "3 1 0" + reals + "x",       // trailing characters
      "3 1 0" + reals + " ",       // trailing space
      "3  1 0" + reals,            // doubled space
      "3 1 0 0x1p+0 0x1p+0",       // missing field
  };
  for (const std::string& bad : bad_records) {
    replace_first_record(path, bad);
    const auto resumed = sim::run_waveform_batch_shard(jobs, cfg);
    EXPECT_FALSE(resumed.from_checkpoint) << bad;
    const auto second = sim::run_waveform_batch_shard(jobs, campaign(dir(), "key", 1, 2));
    EXPECT_TRUE(same_stats(
        direct, sim::merge_waveform_batch_campaign({resumed, second}, jobs)[0]))
        << bad;
  }
}

TEST_F(CampaignTest, MergeRejectsMissingAndOverlappingShards) {
  const auto jobs = one_job(8, 32, 3);
  auto s0 = sim::run_waveform_batch_shard(jobs, campaign("", "k", 0, 2));
  auto s1 = sim::run_waveform_batch_shard(jobs, campaign("", "k", 1, 2));
  EXPECT_THROW(sim::merge_waveform_batch_campaign({s0}, jobs), std::runtime_error);
  EXPECT_THROW(sim::merge_waveform_batch_campaign({s0, s0, s1}, jobs),
               std::runtime_error);
  EXPECT_NO_THROW(sim::merge_waveform_batch_campaign({s1, s0}, jobs));
}

TEST_F(CampaignTest, ResumesCheckedInCheckpointFiles) {
  // tests/data/waveform_ckpt holds both shards of
  //   fig_campaign kind=waveform trials=8 bits=16 seed=3 shard=i/2 dir=ckdata threads=2
  // regenerated when the trial moved onto its carrier envelope and again
  // when the sync value became exact at the peak (only the corr_peak field
  // moved; the key, header and record format are unchanged since the
  // single-scenario waveform shard runner first wrote them). Both must load
  // instead of recomputing and merge to the stats that run's merge step
  // printed, so the format stays
  // readable across releases.
  fs::copy(fs::path(VAB_TEST_DATA_DIR) / "waveform_ckpt", dir());
  sim::Scenario scenario = sim::vab_river_scenario();
  scenario.range_m = 100.0;
  const std::vector<sim::WaveformJob> jobs{{scenario, 8, 16, common::Rng(3)}};
  std::vector<sim::WaveformShardResult> shards;
  for (std::size_t i = 0; i < 2; ++i) {
    shards.push_back(sim::run_waveform_batch_shard(
        jobs, campaign(dir(), "waveform:trials=8:bits=16:seed=3", i, 2)));
    EXPECT_TRUE(shards.back().from_checkpoint) << "shard " << i;
  }
  const sim::WaveformStats merged = sim::merge_waveform_batch_campaign(shards, jobs)[0];
  EXPECT_EQ(merged.trials, 8u);
  EXPECT_EQ(merged.frames_synced, 8u);
  EXPECT_EQ(merged.frames_ok, 8u);
  EXPECT_EQ(merged.total_bits, 128u);
  EXPECT_EQ(merged.bit_errors, 0u);
  EXPECT_EQ(merged.mean_snr_db, 0x1.89eacd3d9bcdap+4);
  EXPECT_EQ(merged.mean_corr_peak, 0x1.d69a88d2e539ap-1);
  EXPECT_EQ(merged.mean_sic_suppression_db, 0x1.c67bed1d583b1p+6);
  // Recomputing the same campaign reproduces the stored outcomes.
  EXPECT_TRUE(same_stats(merged, sim::run_waveform_batch(jobs)[0]));
}

TEST_F(CampaignTest, LinkBudgetShardsMergeBitIdentical) {
  const sim::LinkBudget budget(sim::vab_river_scenario());
  const std::size_t trials = 400;
  const std::size_t bits = 512;
  common::Rng rng(5);
  common::set_thread_count(1);
  common::Rng direct_rng(5);
  const auto direct = budget.monte_carlo(common::Meters{250.0}, trials, bits, direct_rng);

  for (const unsigned threads : {1u, 2u, 8u}) {
    common::set_thread_count(threads);
    std::vector<sim::BerShardResult> shards;
    for (std::size_t i = 0; i < 4; ++i)
      shards.push_back(sim::run_linkbudget_shard(budget, common::Meters{250.0}, trials,
                                                 bits, rng,
                                                 campaign(dir(), "lb", i, 4)));
    const auto merged = sim::merge_linkbudget_campaign(shards, trials, bits);
    EXPECT_EQ(direct.bits, merged.bits) << "threads=" << threads;
    EXPECT_EQ(direct.errors, merged.errors) << "threads=" << threads;
    EXPECT_EQ(direct.mean_snr_db, merged.mean_snr_db) << "threads=" << threads;
  }
  // Second pass resumed every shard from its checkpoint.
  const auto resumed = sim::run_linkbudget_shard(budget, common::Meters{250.0}, trials,
                                                 bits, rng,
                                                 campaign(dir(), "lb", 0, 4));
  EXPECT_TRUE(resumed.from_checkpoint);
}

TEST_F(CampaignTest, MismatchShardsMergeBitIdentical) {
  vanatta::VanAttaConfig ac;
  ac.n_elements = 8;
  const std::size_t trials = 120;
  common::Rng rng(9);
  common::set_thread_count(1);
  common::Rng direct_rng(9);
  const auto direct =
      vanatta::mismatch_monte_carlo(ac, 0.1, 18500.0, 0.2, 1.0, trials, direct_rng);

  for (const unsigned threads : {2u, 8u}) {
    common::set_thread_count(threads);
    std::vector<sim::MismatchShardResult> shards;
    for (std::size_t i = 0; i < 3; ++i)
      shards.push_back(sim::run_mismatch_shard(ac, 0.1, common::Hz{18500.0}, 0.2,
                                               common::Db{1.0}, trials,
                                               rng, campaign("", "mm", i, 3)));
    const auto merged = sim::merge_mismatch_campaign(shards, trials);
    EXPECT_EQ(direct.mean_loss_db, merged.mean_loss_db);
    EXPECT_EQ(direct.p95_loss_db, merged.p95_loss_db);
    EXPECT_EQ(direct.worst_loss_db, merged.worst_loss_db);
  }
}

TEST_F(CampaignTest, BatchShardsMergeBitIdenticalPerJob) {
  std::vector<sim::WaveformJob> jobs;
  common::Rng rng(21);
  for (const double range : {60.0, 90.0}) {
    sim::WaveformJob j;
    j.scenario = fast_scenario();
    j.scenario.range_m = range;
    j.trials = 5;
    j.payload_bits = 32;
    j.rng = rng.child(static_cast<std::uint64_t>(range));
    jobs.push_back(std::move(j));
  }
  common::set_thread_count(1);
  const auto direct = sim::run_waveform_batch(jobs);

  for (const unsigned threads : {2u, 8u}) {
    common::set_thread_count(threads);
    std::vector<sim::WaveformShardResult> shards;
    for (std::size_t i = 0; i < 4; ++i)
      shards.push_back(sim::run_waveform_batch_shard(jobs, campaign(dir(), "b", i, 4)));
    const auto merged = sim::merge_waveform_batch_campaign(shards, jobs);
    ASSERT_EQ(direct.size(), merged.size());
    for (std::size_t j = 0; j < direct.size(); ++j)
      EXPECT_TRUE(same_stats(direct[j], merged[j]))
          << "job=" << j << " threads=" << threads;
  }
}

}  // namespace
}  // namespace vab
