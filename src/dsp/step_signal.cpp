#include "dsp/step_signal.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>

namespace vab::dsp {

namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// a * b with the real arithmetic spelled out (std::complex operator* adds a
/// NaN-recovery branch per product).
cplx cmul(cplx a, cplx b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

void push_run(StepSignal& out, std::size_t pos, cplx v) {
  out.starts.push_back(pos);
  out.values.push_back(v);
}
}  // namespace

void StepSignal::reset(double carrier_omega, std::size_t n) {
  omega = carrier_omega;
  length = n;
  starts.clear();
  values.clear();
}

void runs_of(const cvec& x, StepSignal& out) {
  out.reset(0.0, x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    if (i == 0 || x[i] != x[i - 1]) push_run(out, i, x[i]);
}

void step_events(const StepSignal& x, std::vector<StepEvent>& events) {
  events.clear();
  if (x.runs() == 0) return;
  events.reserve(x.runs() + 1);
  cplx prev{};
  for (std::size_t i = 0; i < x.runs(); ++i) {
    events.push_back({x.starts[i], x.values[i] - prev});
    prev = x.values[i];
  }
  events.push_back({x.length, -prev});
}

void merge_events(std::span<const EventStream> streams, StepSignal& out) {
  out.starts.clear();
  out.values.clear();
  // Min-heap of (next absolute sample, stream), packed into one integer
  // key: sample in the high bits, stream in the low `bits`. Popping in key
  // order sums each sample's steps in stream order; a stream consumed at
  // one sample goes back in under its next sample by replacing the top, one
  // sift-down per visit. Samples at or past out.length end the merge, so
  // keys clamp them to out.length, which is also where an exhausted stream
  // waits. A sentinel after the last node lets a sift-down compare both
  // children without a bounds branch.
  const std::size_t k = streams.size();
  if (k == 0) return;
  const auto bits = static_cast<unsigned>(std::bit_width(k));
  if (bits >= 64 || out.length >= (std::uint64_t{1} << (64 - bits)))
    throw std::length_error("merge_events: length and stream count overflow the key");
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  const auto key = [&](std::size_t s, std::size_t i) {
    const EventStream& st = streams[s];
    const std::size_t pos =
        i < st.events.size() ? st.events[i].pos + st.shift : out.length;
    return (static_cast<std::uint64_t>(std::min(pos, out.length)) << bits) | s;
  };
  std::vector<std::uint64_t> heap(k + 1, std::numeric_limits<std::uint64_t>::max());
  std::vector<std::size_t> idx(k, 0);
  std::size_t total = 0;
  for (std::size_t s = 0; s < k; ++s) {
    total += streams[s].events.size();
    heap[s] = key(s, 0);
  }
  std::make_heap(heap.begin(), heap.begin() + static_cast<std::ptrdiff_t>(k),
                 std::greater<>{});
  const auto sift_down = [&heap, k] {
    const std::uint64_t top = heap[0];
    std::size_t i = 0;
    for (std::size_t c = 1; c < k; c = 2 * i + 1) {
      c += heap[c + 1] < heap[c] ? 1 : 0;
      if (top < heap[c]) break;
      heap[i] = heap[c];
      i = c;
    }
    heap[i] = top;
  };
  out.starts.reserve(total);
  out.values.reserve(total);
  cplx v{};
  for (;;) {
    const std::size_t pos = heap[0] >> bits;
    if (pos >= out.length) break;
    do {
      const std::size_t s = heap[0] & mask;
      const EventStream& st = streams[s];
      std::size_t i = idx[s];
      do {
        v += cmul(st.gain, st.events[i].delta);
        ++i;
      } while (i < st.events.size() && st.events[i].pos + st.shift == pos);
      idx[s] = i;
      heap[0] = key(s, i);
      sift_down();
    } while ((heap[0] >> bits) == pos);
    push_run(out, pos, v);
  }
}

void modulate(const StepSignal& x, std::span<const std::size_t> gain_starts,
              std::span<const double> gains, StepSignal& out) {
  if (gain_starts.empty() || gain_starts.size() != gains.size() || gain_starts[0] != 0)
    throw std::invalid_argument("modulate: gains must start at sample 0");
  out.reset(x.omega, x.length);
  if (x.runs() == 0) return;
  out.starts.reserve(x.runs() + gains.size());
  out.values.reserve(x.runs() + gains.size());
  std::size_t ix = 0;
  std::size_t ig = static_cast<std::size_t>(
      std::upper_bound(gain_starts.begin(), gain_starts.end(), x.starts[0]) -
      gain_starts.begin() - 1);
  std::size_t pos = x.starts[0];
  for (;;) {
    push_run(out, pos, x.values[ix] * gains[ig]);
    const std::size_t nx = x.run_end(ix);
    const std::size_t ng = ig + 1 < gain_starts.size() ? gain_starts[ig + 1] : kNone;
    pos = std::min(nx, ng);
    if (pos >= x.length) break;
    if (nx == pos) ++ix;
    while (ig + 1 < gain_starts.size() && gain_starts[ig + 1] <= pos) ++ig;
  }
}

void add(const StepSignal& a, const StepSignal& b, StepSignal& out) {
  if (a.omega != b.omega) throw std::invalid_argument("add: carriers differ");
  out.reset(a.omega, std::max(a.length, b.length));
  out.starts.reserve(a.runs() + b.runs() + 2);
  out.values.reserve(a.runs() + b.runs() + 2);
  // Each operand steps at its run starts, then to zero at its length.
  const auto boundary = [](const StepSignal& x, std::size_t i) {
    if (i < x.runs()) return x.starts[i];
    return i == x.runs() && x.runs() > 0 ? x.length : kNone;
  };
  const auto value = [](const StepSignal& x, std::size_t i) {
    return i < x.runs() ? x.values[i] : cplx{};
  };
  std::size_t ia = 0, ib = 0;
  cplx va{}, vb{};
  for (;;) {
    const std::size_t na = boundary(a, ia), nb = boundary(b, ib);
    const std::size_t pos = std::min(na, nb);
    if (pos >= out.length) break;
    if (na == pos) va = value(a, ia++);
    if (nb == pos) vb = value(b, ib++);
    push_run(out, pos, va + vb);
  }
}

void window(const StepSignal& x, std::size_t begin, std::size_t end, StepSignal& out) {
  if (end < begin) throw std::invalid_argument("window: end before begin");
  out.reset(x.omega, end - begin);
  const cplx rot = std::polar(1.0, x.omega * static_cast<double>(begin));
  const std::size_t stop = std::min(end, x.length);
  for (std::size_t i = 0; i < x.runs() && x.starts[i] < stop; ++i) {
    if (x.run_end(i) <= begin) continue;
    push_run(out, std::max(x.starts[i], begin) - begin, cmul(x.values[i], rot));
  }
  if (x.length < end && x.length > begin && !out.values.empty())
    push_run(out, x.length - begin, cplx{});
}

double energy(const StepSignal& x) {
  // sum_{n=a}^{b-1} Re{v e^{jwn}}^2 = |v|^2 (b-a)/2
  //                                  + Re{v^2 e^{2jwa} sum_{i<b-a} e^{2jwi}}/2.
  const cplx step = std::polar(1.0, 2.0 * x.omega);
  double acc = 0.0;
  for (std::size_t i = 0; i < x.runs(); ++i) {
    const std::size_t a = x.starts[i];
    const auto len = static_cast<double>(x.run_end(i) - a);
    const cplx v = x.values[i];
    const cplx geo = std::abs(1.0 - step) > 0.0
                         ? (1.0 - std::polar(1.0, 2.0 * x.omega * len)) / (1.0 - step)
                         : cplx{len, 0.0};
    const cplx osc =
        v * v * std::polar(1.0, 2.0 * x.omega * static_cast<double>(a)) * geo;
    acc += 0.5 * (std::norm(v) * len + osc.real());
  }
  return acc;
}

double rms(const StepSignal& x) {
  return x.length == 0 ? 0.0 : std::sqrt(energy(x) / static_cast<double>(x.length));
}

}  // namespace vab::dsp
