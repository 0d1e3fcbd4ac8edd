#include "trace.h"

#include <fstream>

#include "check/jsonio.h"
#include "json.h"

namespace bench {

std::int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Span Tracer::span(std::string name, std::string category,
                          Args args) {
  if (!enabled_) return {};
  events_.push_back(
      Event{std::move(name), std::move(category), nowNs(), -1, std::move(args)});
  return Span(this, events_.size() - 1);
}

void Tracer::Span::arg(const std::string& key, std::string value) {
  if (tracer_ != nullptr) {
    tracer_->events_[index_].args.emplace_back(key, std::move(value));
  }
}

void Tracer::Span::end() {
  if (tracer_ == nullptr) return;
  Event& e = tracer_->events_[index_];
  e.durNs = tracer_->nowNs() - e.beginNs;
  tracer_ = nullptr;
}

bool Tracer::write(const std::string& path, std::string* err) const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events_) {
    if (e.durNs < 0) continue;  // never closed (an aborted run)
    if (!first) out += ",\n";
    first = false;
    out += '{';
    fencetrade::check::jsonStr(out, "name", e.name);
    out += ',';
    fencetrade::check::jsonStr(out, "cat", e.category);
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
           jsonNumber(static_cast<double>(e.beginNs) / 1e3) +
           ",\"dur\":" + jsonNumber(static_cast<double>(e.durNs) / 1e3) +
           ",\"args\":{";
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      if (i) out += ',';
      fencetrade::check::jsonStr(out, e.args[i].first.c_str(),
                                 e.args[i].second);
    }
    out += "}}";
  }
  out += "]}\n";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << out;
  f.close();
  if (!f) {
    if (err) *err = "cannot write trace " + path;
    return false;
  }
  return true;
}

}  // namespace bench
