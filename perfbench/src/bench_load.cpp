// Query load generator for the daemon workloads (driven by perfbench/run.py).
//
//   bench_load --port=P --keys=FILE --plan=FILE --out=PREFIX [--spans=PATH]
//              [--open-rate=R] [--open-seconds=T] [--until-stdin]
//              [--closed-seconds=T]
//
// FILE `keys` holds one "network task" pair per line; `plan` holds the
// seeded sequence of key indices the queries follow (run.py draws it from
// the workload seed).  Two phases, each optional:
//
//   open loop    one connection and one thread that sends query i when it
//                is due (start + i / R, whatever the replies do) and reads
//                the replies in order in between.  Latency
//                runs from the due time, so a stall also charges the queries
//                queued behind it; the sender's lateness is reported as lag.
//                Ends after --open-seconds, or with --until-stdin when a line
//                or EOF arrives on standard input.
//   closed loop  one connection on the same thread, keeping kClosedWindow
//                queries in flight and sending the next only when a reply
//                comes back: the capacity of one daemon connection thread.
//
// Output: PREFIX.open.csv / PREFIX.closed.csv (one line per query:
// key,tier,est_ms,serve_us,lat_us,rtt_us,lag_us,gen,at_ms, where at_ms is
// the reply's time since the phase began), PREFIX.l1.jsonl (each
// distinct L1 answer per key, for the record check), PREFIX.summary.json,
// and with --spans the spans (every tenth open-loop query) plus
// PREFIX.requests / PREFIX.replies (one message of each kind per key and
// tier, for the protocol replay).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/protocol.hpp"
#include "tracer.hpp"

namespace {

using namespace harl;
using perfbench::now_ns;
using perfbench::Tracer;

constexpr std::int64_t kMaxPhaseNs = 150LL * 1000 * 1000 * 1000;  // hard stop
// LineClient::recv_line's error when no line arrived within the timeout.
const char* const kRecvTimedOut = "timed out waiting for a reply line";
// Closed-loop queries in flight per connection: enough that the daemon's
// connection thread always finds the next request buffered, so the phase
// measures serving capacity rather than thread wake-up latency.
constexpr std::size_t kClosedWindow = 8;
// The open loop spins only this close to the next due time when no reply is
// outstanding; a timed sleep on a VM wakes up to about 100 us late.
constexpr std::int64_t kSpinAheadNs = 200000;

struct Sample {
  int key = 0;
  int tier = 0;  // 0 miss, 1 L1, 2 L2, 3 L3, -1 error
  double est_ms = -1;
  double serve_us = -1;
  std::int64_t due_ns = 0, send_ns = 0, recv_ns = 0;
  std::uint64_t gen = 0;
};

int tier_code(const std::string& t) {
  if (t == "L1") return 1;
  if (t == "L2") return 2;
  if (t == "L3") return 3;
  if (t == "miss") return 0;
  return -1;
}

/// Per-phase reply bookkeeping; each receiving thread owns one.
struct Collector {
  std::vector<Sample> samples;
  std::set<std::pair<int, std::string>> l1;               // (key, record)
  std::map<std::pair<int, int>, std::string> replies;     // (key, tier) -> raw line
  std::int64_t errors = 0;

  void take(Sample s, const std::string& line) {
    Response resp;
    std::string error;
    if (!response_from_json(line, &resp, &error) || !resp.ok) {
      ++errors;
      s.tier = -1;
      samples.push_back(s);
      return;
    }
    s.tier = tier_code(resp.tier);
    s.est_ms = resp.est_time_ms;
    s.serve_us = resp.serve_us;
    s.gen = resp.cache_gen;
    if (s.tier == 1) {
      l1.emplace(s.key, resp.record);
    }
    replies.emplace(std::make_pair(s.key, s.tier), line);
    samples.push_back(s);
  }
};

struct Options {
  int port = 0;
  std::string prefix;
  std::string spans;
  double open_rate = 0;
  double open_seconds = 0;
  bool until_stdin = false;
  double closed_seconds = 0;
};

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

bool connect_or_report(LineClient* cli, int port) {
  std::string error;
  if (cli->connect("127.0.0.1", port, &error)) return true;
  std::fprintf(stderr, "bench_load: %s\n", error.c_str());
  return false;
}

/// Open loop: returns false on a transport failure.  One thread sends each
/// query when it is due and reads replies in between.  It spins while a
/// reply is outstanding or the next query is due within kSpinAheadNs, so
/// that neither a send nor a reply waits for the generator to be woken up;
/// otherwise it sleeps until kSpinAheadNs before the next query is due, so
/// that a slow rate leaves the daemon the cores it would spin on.
bool run_open(const Options& o, const std::vector<std::string>& wire,
              const std::vector<int>& plan, Collector* col,
              std::int64_t* phase_ns) {
  LineClient cli;
  if (!connect_or_report(&cli, o.port)) return false;
  std::atomic<bool> stop{false};
  std::thread stdin_watch;
  if (o.until_stdin) {
    // Ends at the first line or EOF; run.py always sends one.
    stdin_watch = std::thread([&stop] {
      std::string line;
      std::getline(std::cin, line);
      stop.store(true);
    });
  }
  const std::int64_t period_ns = static_cast<std::int64_t>(1e9 / o.open_rate);
  const std::int64_t t0 = now_ns() + 2000000;  // first query due in 2 ms
  const std::int64_t end_ns =
      o.until_stdin ? t0 + kMaxPhaseNs
                    : t0 + static_cast<std::int64_t>(o.open_seconds * 1e9);
  std::vector<Sample> pending;  // sent, not yet answered, in send order
  std::size_t answered = 0;
  bool sending = true, ok = true;
  std::string line, error;
  for (std::int64_t i = 0; ok && (sending || answered < pending.size());) {
    const std::int64_t now = now_ns();
    if (sending) {
      const std::int64_t due = t0 + i * period_ns;
      if (due >= end_ns || stop.load() || now > end_ns) {
        sending = false;
      } else if (now >= due) {
        Sample s;
        s.key = plan[static_cast<std::size_t>(i) % plan.size()];
        s.due_ns = due;
        s.send_ns = now;
        pending.push_back(s);
        ok = cli.send_line(wire[static_cast<std::size_t>(s.key)], &error);
        ++i;
        continue;
      }
    }
    if (answered < pending.size()) {
      if (cli.recv_line(&line, &error, 0)) {
        Sample s = pending[answered++];
        s.recv_ns = now_ns();
        col->take(s, line);
      } else if (error != kRecvTimedOut ||
                 now > end_ns + 10000000000LL) {
        ok = false;
      }
    } else if (sending) {
      const std::int64_t wait = t0 + i * period_ns - kSpinAheadNs - now;
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    }
  }
  if (!ok) std::fprintf(stderr, "bench_load: open loop: %s\n", error.c_str());
  if (stdin_watch.joinable()) stdin_watch.join();
  *phase_ns = (col->samples.empty() ? t0 : col->samples.back().recv_ns) - t0;
  return ok;
}

/// Closed loop on one connection: one daemon thread and this one busy, so
/// the phase leaves two of a 4-core machine's cores to everything else.
bool run_closed(const Options& o, const std::vector<std::string>& wire,
                const std::vector<int>& plan, Collector* col,
                std::int64_t* phase_ns) {
  LineClient cli;
  if (!connect_or_report(&cli, o.port)) return false;
  const std::int64_t t0 = now_ns();
  const std::int64_t end_ns = t0 + static_cast<std::int64_t>(o.closed_seconds * 1e9);
  std::size_t j = 0;
  std::deque<Sample> window;  // sent, not yet answered
  std::string line, error;
  for (;;) {
    while (window.size() < kClosedWindow && now_ns() < end_ns) {
      Sample s;
      s.key = plan[j++ % plan.size()];
      s.send_ns = now_ns();
      s.due_ns = s.send_ns;
      if (!cli.send_line(wire[static_cast<std::size_t>(s.key)], &error)) break;
      window.push_back(s);
    }
    if (window.empty()) break;
    // Spin for the reply: a generator that sleeps in poll() must be woken
    // for every reply, and that wake-up's cost varies with the host's load.
    const std::int64_t give_up_ns = now_ns() + 10000000000LL;
    while (!cli.recv_line(&line, &error, 0)) {
      if (error != kRecvTimedOut || now_ns() > give_up_ns) {
        std::fprintf(stderr, "bench_load: closed loop: %s\n", error.c_str());
        return false;
      }
    }
    Sample s = window.front();
    window.pop_front();
    s.recv_ns = now_ns();
    col->take(s, line);
  }
  *phase_ns = (col->samples.empty() ? t0 : col->samples.back().recv_ns) - t0;
  return true;
}

void write_samples(const std::string& path, const Collector& col) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const std::int64_t t0 = col.samples.empty() ? 0 : col.samples.front().due_ns;
  for (const Sample& s : col.samples) {
    std::fprintf(f, "%d,%d,%.17g,%.6f,%.3f,%.3f,%.3f,%llu,%.3f\n", s.key, s.tier,
                 s.est_ms, s.serve_us, (s.recv_ns - s.due_ns) / 1e3,
                 (s.recv_ns - s.send_ns) / 1e3, (s.send_ns - s.due_ns) / 1e3,
                 static_cast<unsigned long long>(s.gen), (s.recv_ns - t0) / 1e6);
  }
  std::fclose(f);
}

/// A span for the phase and, for every `every`-th query (none when 0), one
/// for the query with the server-side lookup as its child.  Only the
/// lookup's duration is measured (the reply's serve_us); it is placed in
/// the middle of the round trip.  Sampling keeps a 30 s run's spans to a
/// few tens of thousands.
void trace_phase(Tracer* tr, const char* phase, const Collector& col,
                 std::size_t every, std::int64_t* next_req) {
  if (col.samples.empty()) return;
  const std::int64_t root =
      tr->add(phase, col.samples.front().due_ns, col.samples.back().recv_ns);
  if (every == 0) return;
  for (std::size_t i = 0; i < col.samples.size(); i += every) {
    const Sample& s = col.samples[i];
    const std::int64_t req = (*next_req)++;
    if (s.send_ns > s.due_ns) tr->add("load.lag", s.due_ns, s.send_ns, root, req);
    const std::int64_t q = tr->add("server.query", s.send_ns, s.recv_ns, root, req);
    if (s.serve_us >= 0) {
      const std::int64_t serve_ns = static_cast<std::int64_t>(s.serve_us * 1e3);
      const std::int64_t start = s.send_ns + (s.recv_ns - s.send_ns - serve_ns) / 2;
      const char* name = s.tier == 1   ? "serve.l1"
                         : s.tier == 2 ? "serve.l2"
                         : s.tier == 3 ? "serve.l3"
                                       : "serve.miss";
      tr->add(name, start, start + serve_ns, q, req);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string keys_path, plan_path;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto val = [&](const char* name, std::string* out) {
      std::string p = std::string("--") + name + "=";
      if (a.rfind(p, 0) != 0) return false;
      *out = a.substr(p.size());
      return true;
    };
    std::string v;
    if (val("port", &v)) o.port = std::atoi(v.c_str());
    else if (val("keys", &v)) keys_path = v;
    else if (val("plan", &v)) plan_path = v;
    else if (val("out", &v)) o.prefix = v;
    else if (val("spans", &v)) o.spans = v;
    else if (val("open-rate", &v)) o.open_rate = std::atof(v.c_str());
    else if (val("open-seconds", &v)) o.open_seconds = std::atof(v.c_str());
    else if (val("closed-seconds", &v)) o.closed_seconds = std::atof(v.c_str());
    else if (a == "--until-stdin") o.until_stdin = true;
    else {
      std::fprintf(stderr, "bench_load: bad argument %s\n", a.c_str());
      return 2;
    }
  }
  std::vector<std::string> wire;
  for (const std::string& line : read_lines(keys_path)) {
    std::size_t sp = line.find(' ');
    Request q;
    q.type = RequestType::kQuery;
    q.network = line.substr(0, sp);
    q.task = line.substr(sp + 1);
    q.hw = "xeon";
    wire.push_back(request_to_json(q));
  }
  std::vector<int> plan;
  for (const std::string& line : read_lines(plan_path)) {
    int k = std::atoi(line.c_str());
    if (k < 0 || k >= static_cast<int>(wire.size())) {
      std::fprintf(stderr, "bench_load: plan index %d out of range\n", k);
      return 2;
    }
    plan.push_back(k);
  }
  if (o.port <= 0 || o.prefix.empty() || wire.empty() || plan.empty() ||
      (o.open_rate <= 0 && o.closed_seconds <= 0)) {
    std::fprintf(stderr, "bench_load: need --port, --keys, --plan, --out and a phase\n");
    return 2;
  }

  Collector open_col, closed_col;
  std::int64_t open_ns = 0, closed_ns = 0;
  bool ok = true;
  if (o.open_rate > 0) ok = run_open(o, wire, plan, &open_col, &open_ns);
  if (ok && o.closed_seconds > 0) ok = run_closed(o, wire, plan, &closed_col, &closed_ns);

  write_samples(o.prefix + ".open.csv", open_col);
  write_samples(o.prefix + ".closed.csv", closed_col);

  std::int64_t errors = 0;
  std::set<std::pair<int, std::string>> l1;
  std::map<std::pair<int, int>, std::string> replies;
  for (const Collector* c : {&open_col, &closed_col}) {
    errors += c->errors;
    l1.insert(c->l1.begin(), c->l1.end());
    replies.insert(c->replies.begin(), c->replies.end());
  }
  if (std::FILE* f = std::fopen((o.prefix + ".l1.jsonl").c_str(), "w")) {
    for (const auto& kr : l1) {
      // The record is JSON text; embed it as a JSON string.
      std::string esc;
      for (char ch : kr.second) {
        if (ch == '"' || ch == '\\') esc += '\\';
        esc += ch;
      }
      std::fprintf(f, "{\"key\":%d,\"record\":\"%s\"}\n", kr.first, esc.c_str());
    }
    std::fclose(f);
  }
  if (std::FILE* f = std::fopen((o.prefix + ".summary.json").c_str(), "w")) {
    std::fprintf(f, "{\"ok\":%s,\"errors\":%lld,\"open_ns\":%lld,\"closed_ns\":%lld}\n",
                 ok ? "true" : "false", static_cast<long long>(errors),
                 static_cast<long long>(open_ns), static_cast<long long>(closed_ns));
    std::fclose(f);
  }
  if (!o.spans.empty()) {
    Tracer tr(true);
    std::int64_t next_req = 1;
    trace_phase(&tr, "load.open", open_col, 10, &next_req);
    trace_phase(&tr, "load.closed", closed_col, 0, &next_req);
    tr.write(o.spans);
    std::ofstream req(o.prefix + ".requests"), rep(o.prefix + ".replies");
    std::set<int> keys;
    for (const auto& kv : replies) {
      if (keys.insert(kv.first.first).second) {
        req << wire[static_cast<std::size_t>(kv.first.first)] << "\n";
      }
      rep << kv.second << "\n";
    }
  }
  // Error replies are counted in the summary and the samples; only a lost
  // connection is a failure of the generator itself.
  return ok ? 0 : 1;
}
