#include "sim/trace.hpp"

#include <stdexcept>

namespace decentnet::sim {

namespace {

void append_escaped(std::string& out, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      // Control characters never appear in our literal tags; keep the
      // escape anyway so arbitrary sink reuse stays valid JSON.
      static const char* hex = "0123456789abcdef";
      out += "\\u00";
      out += hex[(c >> 4) & 0xF];
      out += hex[c & 0xF];
    } else {
      out += c;
    }
  }
}

/// Append `rec` to `out` as one JSONL line (including the trailing newline).
void append_record_json(std::string& out, const TraceRecord& rec) {
  // Hand-rolled serialization: integer-only fields, no locale, no
  // allocation churn beyond the caller's reused buffer.
  out += "{\"t\":";
  out += std::to_string(rec.t);
  out += ",\"kind\":\"";
  append_escaped(out, rec.kind);
  out += '"';
  if (rec.tag && rec.tag[0] != '\0') {
    out += ",\"tag\":\"";
    append_escaped(out, rec.tag);
    out += '"';
  }
  out += ",\"id\":";
  out += std::to_string(rec.id);
  if (rec.a != 0) {
    out += ",\"a\":";
    out += std::to_string(rec.a);
  }
  if (rec.b != 0) {
    out += ",\"b\":";
    out += std::to_string(rec.b);
  }
  if (rec.bytes != 0) {
    out += ",\"bytes\":";
    out += std::to_string(rec.bytes);
  }
  if (rec.queue_us != 0) {
    // Nonzero only on "span" records under Bandwidth/Tcp transport, so
    // latency-only golden traces stay byte-identical.
    out += ",\"queue_us\":";
    out += std::to_string(rec.queue_us);
  }
  out += "}\n";
}

}  // namespace

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : owned_(path, std::ios::out | std::ios::trunc), os_(&owned_) {
  if (!owned_) {
    throw std::runtime_error("JsonlTraceSink: cannot open " + path);
  }
  line_.reserve(96);
}

JsonlTraceSink::JsonlTraceSink(std::ostream& os) : os_(&os) {
  line_.reserve(96);
}

JsonlTraceSink::~JsonlTraceSink() { flush(); }

void JsonlTraceSink::record(const TraceRecord& rec) {
  line_.clear();
  append_record_json(line_, rec);
  os_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
  ++written_;
}

bool JsonlTraceSink::flush() { return !os_->flush().fail(); }

}  // namespace decentnet::sim
