#include "net/mac.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/labels.hpp"
#include "obs/obs.hpp"

namespace vab::net {

namespace {
// ARQ accounting across all readers: the protocol's cost under impairment.
struct ArqMetrics {
  obs::Counter acks = obs::counter("net.arq.acks");
  obs::Counter duplicates = obs::counter("net.arq.duplicates");
  obs::Counter retries = obs::counter("net.arq.retries");
  obs::Counter timeouts = obs::counter("net.arq.timeouts");
  obs::Counter demotions = obs::counter("net.arq.demotions");

  static ArqMetrics& get() {
    static ArqMetrics* m = new ArqMetrics;  // leaked: read at exit
    return *m;
  }
};

// Rate-adaptation accounting: rung residency and step/reconfigure totals.
struct McsMetrics {
  obs::CounterFamily rung_polls{obs::Registry::global(), "net.mcs.rung_polls",
                                mcs::kMaxRungs + 1};
  obs::Counter steps_up = obs::counter("net.mcs.steps_up");
  obs::Counter steps_down = obs::counter("net.mcs.steps_down");
  obs::Counter reconfigures = obs::counter("net.mcs.reconfigures");

  static McsMetrics& get() {
    static McsMetrics* m = new McsMetrics;  // leaked: read at exit
    return *m;
  }
};
}  // namespace

double MacTiming::slot_duration_s() const {
  mcs::McsEntry fm0;
  fm0.bitrate_bps = uplink_bitrate_bps;
  return fm0.slot_duration(slot_payload_bytes).raw();
}

NodeMac::NodeMac(std::uint8_t address, MacTiming timing)
    : addr_(address), timing_(timing) {
  if (address == kBroadcastAddr)
    throw std::invalid_argument("broadcast is not a node address");
}

std::optional<NodeMac::Response> NodeMac::on_downlink(const Frame& dl,
                                                      const SensorReading& reading) {
  switch (dl.type) {
    case FrameType::kAck: {
      // Reader confirmed our outstanding seq: advance the window.
      if (dl.addr != addr_ || dl.payload.size() != 1) return std::nullopt;
      if (awaiting_ack_ && dl.payload[0] == seq_) {
        ++seq_;
        awaiting_ack_ = false;
      }
      return std::nullopt;
    }
    case FrameType::kQuery: {
      if (dl.addr != addr_ && dl.addr != kBroadcastAddr) return std::nullopt;
      // MCS command byte: low nibble is the rung the reader wants the reply
      // sent at. Nodes that never called enable_mcs ignore it.
      if (ladder_ != nullptr && !dl.payload.empty()) {
        const std::size_t commanded =
            std::min<std::size_t>(dl.payload[0] & 0x0F, ladder_->size() - 1);
        if (commanded != rung_) reconfigure(commanded);
      }
      Response r;
      r.frame.addr = addr_;
      r.frame.type = FrameType::kSensorReport;
      r.frame.seq = seq_;  // unchanged until ACKed: retransmissions dedupe on it
      r.frame.payload = encode_reading(reading);
      r.tx_offset_s = timing_.guard_s;
      awaiting_ack_ = true;
      return r;
    }
    case FrameType::kSensorReport:
      return std::nullopt;  // uplink type; ignore on the downlink
  }
  return std::nullopt;
}

void NodeMac::enable_mcs(const mcs::McsLadder& ladder) {
  ladder_ = &ladder;
  // Materialise the starting rung's modem/FEC state without counting it as
  // a reconfiguration (nothing changed from the node's point of view).
  rung_ = std::min(mcs::McsLadder::kPaperRung, ladder.size() - 1);
  ladder.rung(rung_).apply(phy_cfg_, fec_cfg_);
}

void NodeMac::reconfigure(std::size_t rung) {
  rung_ = rung;
  ladder_->rung(rung_).apply(phy_cfg_, fec_cfg_);
  ++reconfigures_;
  McsMetrics::get().reconfigures.inc();
}

ReaderMac::ReaderMac(MacTiming timing, ArqConfig arq) : timing_(timing), arq_(arq) {}

Frame ReaderMac::make_query(std::uint8_t addr) {
  Frame f;
  f.addr = addr;
  f.type = FrameType::kQuery;
  f.seq = seq_++;
  // In MCS mode the query carries the commanded rung; fixed-rate queries
  // keep the legacy empty payload, bit-for-bit.
  if (ladder_ != nullptr)
    f.payload = {static_cast<std::uint8_t>(rung_of(addr) & 0x0F)};
  return f;
}

Frame ReaderMac::make_ack(std::uint8_t addr, std::uint8_t seq) {
  Frame f;
  f.addr = addr;
  f.type = FrameType::kAck;
  f.seq = seq_++;
  f.payload = {seq};
  ArqMetrics::get().acks.inc();
  return f;
}

ReaderMac::UplinkEvent ReaderMac::on_report(const Frame& report) {
  ArqState& st = arq_state_[report.addr];
  if (st.have_seq && st.last_seq == report.seq) {
    // Our ACK was lost and the node retransmitted: re-ACK, don't re-count.
    ArqMetrics::get().duplicates.inc();
    st.consecutive_misses = 0;
    return UplinkEvent::kDuplicate;
  }
  st.have_seq = true;
  st.last_seq = report.seq;
  st.consecutive_misses = 0;
  return UplinkEvent::kDelivered;
}

ReaderMac::MissAction ReaderMac::on_miss(std::uint8_t addr) {
  ArqState& st = arq_state_[addr];
  ++st.consecutive_misses;
  ArqMetrics::get().timeouts.inc();
  if (st.consecutive_misses > arq_.demote_after_misses) return MissAction::kDemote;
  ArqMetrics::get().retries.inc();
  return MissAction::kRetry;
}

std::size_t ReaderMac::backoff_slots(std::uint8_t addr) const {
  const std::size_t misses = arq_state_[addr].consecutive_misses;
  if (misses == 0) return 0;
  // base * 2^(misses-1), saturating at the ceiling without overflow.
  std::size_t slots = kBackoffBaseSlots;
  for (std::size_t i = 1; i < misses && slots < kBackoffCeilingSlots; ++i) slots *= 2;
  return std::min(slots, kBackoffCeilingSlots);
}

void ReaderMac::demote(std::uint8_t addr) {
  arq_state_[addr] = ArqState{};
  ArqMetrics::get().demotions.inc();
  // Rate state is link state: a demoted node re-enters at the start rung
  // after rediscovery, with fresh EWMAs.
  controllers_.erase(addr);
}

void ReaderMac::enable_mcs(const mcs::McsLadder& ladder, mcs::AdaptConfig adapt) {
  ladder_ = &ladder;
  adapt_ = adapt;
  rung_poll_ctrs_ = {};  // the cached series are named after the old ladder's rungs
}

mcs::RateController& ReaderMac::controller_for(std::uint8_t addr) {
  auto it = controllers_.find(addr);
  if (it == controllers_.end())
    it = controllers_.emplace(addr, mcs::RateController(*ladder_, adapt_)).first;
  return it->second;
}

std::size_t ReaderMac::rung_of(std::uint8_t addr) {
  if (ladder_ == nullptr) return 0;
  return controller_for(addr).rung();
}

const mcs::McsEntry* ReaderMac::uplink_entry(std::uint8_t addr) {
  if (ladder_ == nullptr) return nullptr;
  return &ladder_->rung(rung_of(addr));
}

void ReaderMac::observe_link(std::uint8_t addr, std::optional<common::SnrDb> snr_ref,
                             bool delivered) {
  if (ladder_ == nullptr) return;
  mcs::RateController& ctl = controller_for(addr);
  const std::size_t used = ctl.rung();  // the rung this poll actually ran at
  ++rung_polls_[used];
  std::optional<obs::Counter>& rung_ctr = rung_poll_ctrs_[used];
  if (!rung_ctr)
    rung_ctr.emplace(
        McsMetrics::get().rung_polls.with({{"rung", ladder_->rung(used).name}}));
  rung_ctr->inc();
  const int step = ctl.observe(snr_ref, delivered);
  if (step > 0) {
    ++mcs_steps_up_;
    McsMetrics::get().steps_up.inc();
  } else if (step < 0) {
    ++mcs_steps_down_;
    McsMetrics::get().steps_down.inc();
  }
}

}  // namespace vab::net
