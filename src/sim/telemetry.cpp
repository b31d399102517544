#include "sim/telemetry.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "sim/simulator.hpp"

namespace decentnet::sim {

namespace {

void append_uint(std::string& out, std::uint64_t v) {
  char tmp[20];
  char* p = tmp + sizeof(tmp);
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  out.append(p, tmp + sizeof(tmp) - p);
}

void append_double(std::string& out, double v) {
  // Shortest round-trip form: equal doubles always serialize to equal
  // bytes, and a parse gives back the exact value. Integral values come out
  // without an exponent or trailing zeros ("3", "0.5", "1e+20").
  char tmp[32];
  const auto res = std::to_chars(tmp, tmp + sizeof(tmp), v);
  if (res.ec != std::errc()) {
    out += '0';  // unreachable for finite doubles; keep the line valid
    return;
  }
  out.append(tmp, res.ptr);
}

}  // namespace

void append_series_json(std::string& out, SimTime t, std::uint32_t shard,
                        const std::string& series, double value) {
  out += "{\"t\":";
  append_uint(out, static_cast<std::uint64_t>(t));
  out += ",\"shard\":";
  append_uint(out, shard);
  out += ",\"series\":\"";
  out += series;  // series names are code-chosen identifiers: no escaping
  out += "\",\"v\":";
  append_double(out, value);
  out += "}\n";
}

// ---------------------------------------------------------------------------
// SeriesSink
// ---------------------------------------------------------------------------

SeriesSink::SeriesSink(const std::string& path, std::size_t chunk_bytes)
    : out_(path, std::ios::binary | std::ios::trunc),
      chunk_bytes_(chunk_bytes) {
  if (!out_.is_open()) {
    throw std::runtime_error("SeriesSink: cannot open " + path);
  }
  if (chunk_bytes_ == 0) {
    throw std::runtime_error("SeriesSink: chunk_bytes must be > 0");
  }
  buf_.reserve(chunk_bytes_ + 256);
}

SeriesSink::~SeriesSink() {
  try {
    flush();
  } catch (...) {
    // destructor: swallow write failures, same policy as the trace sinks
  }
}

void SeriesSink::record(SimTime t, std::uint32_t shard,
                        const std::string& series, double value) {
  append_series_json(buf_, t, shard, series, value);
  ++written_;
  if (buf_.size() >= chunk_bytes_) write_buffer();
}

void SeriesSink::write_buffer() {
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

bool SeriesSink::flush() {
  if (!buf_.empty()) write_buffer();
  return !out_.flush().fail();
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

Telemetry::Telemetry(SeriesSink& sink, SimDuration interval)
    : sink_(sink), interval_(interval > 0 ? interval : millis(100)),
      due_(interval_) {}

void Telemetry::begin_run() {
  series_.clear();
  order_.clear();
  order_dirty_ = false;
  due_ = interval_;
}

void Telemetry::add_gauge(std::string name, std::uint32_t shard, GaugeFn fn) {
  Series s;
  s.name = std::move(name);
  s.shard = shard;
  s.gauge = std::move(fn);
  series_.push_back(std::move(s));
  order_dirty_ = true;
}

void Telemetry::add_rate(std::string name, std::uint32_t shard,
                         const Counter& counter) {
  Series s;
  s.name = std::move(name);
  s.shard = shard;
  s.counter = &counter;
  s.last = counter.value();
  series_.push_back(std::move(s));
  order_dirty_ = true;
}

void Telemetry::attach(Simulator& simu) {
  begin_run();
  Simulator* const sp = &simu;
  add_gauge("kernel/backlog", 0, [sp](SimTime) {
    return static_cast<double>(sp->pending_events());
  });
  simu.set_telemetry(this);
}

void Telemetry::rebuild_order() {
  order_.resize(series_.size());
  for (std::uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              const Series& x = series_[a];
              const Series& y = series_[b];
              if (x.shard != y.shard) return x.shard < y.shard;
              if (x.name != y.name) return x.name < y.name;
              return a < b;  // duplicate registrations keep their order
            });
  order_dirty_ = false;
}

void Telemetry::advance_to(SimTime now) {
  if (now < due_ || series_.empty()) return;
  if (order_dirty_) rebuild_order();
  while (due_ <= now) {
    const SimTime t = due_;
    for (const std::uint32_t idx : order_) {
      Series& s = series_[idx];
      double v;
      if (s.counter != nullptr) {
        const std::uint64_t cur = s.counter->value();
        v = static_cast<double>(cur - s.last);
        s.last = cur;
      } else {
        v = s.gauge(t);
      }
      sink_.record(t, s.shard, s.name, v);
    }
    due_ += interval_;
  }
}

}  // namespace decentnet::sim
