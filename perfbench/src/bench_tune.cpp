// Benchmark tool for the tuning side of HARL.  Three modes, all driven by
// perfbench/run.py:
//
//   bench_tune tune --network=bert --policy=HARL --trials=N --seed=S
//                   --log=PATH --out=RESULT.json [--spans=PATH]
//       One cold, durable tuning run, as `tune_network --policy= --log=`
//       runs it, with benchmark-owned callbacks registered first and last so
//       each round splits into search time and callback (logger) time.
//
//   bench_tune netdef --networks=bert_b1,resnet50_b1 --out=FILE
//       The network definitions the output checks need: per task its
//       weight, FLOPs and per-stage loop extents, and the hardware peak.
//
//   bench_tune replay --logs=A,B --parts=rl,cost,hydrate --out=FILE
//                     --spans=PATH [--requests=FILE --replies=FILE]
//       Per-layer replays for the traced run, each only on the workloads
//       whose layers it measures.  rl: PPO act/train and MLP forward at the
//       shapes HARL builds for the logged sketches, on observations of the
//       logged schedules.  cost: feature extraction and simulation of every
//       logged schedule, and GBDT fit/predict on the largest task's logged
//       rows.  hydrate: knowledge-cache hydration from the logs.  With
//       --requests/--replies: the wire protocol's parse/serialize on the
//       workload's own messages.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/harl.hpp"
#include "tracer.hpp"

namespace {

using namespace harl;
using perfbench::now_ns;
using perfbench::Tracer;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    std::size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bench_tune: bad argument %s\n", a.c_str());
      std::exit(2);
    }
    flags[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const char* name) {
  auto it = flags.find(name);
  if (it == flags.end() || it->second.empty()) {
    std::fprintf(stderr, "bench_tune: missing --%s\n", name);
    std::exit(2);
  }
  return it->second;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

json::Value num(std::int64_t v) { return json::Value::number(v); }
json::Value num(double v) { return json::Value::number(v); }

// ------------------------------------------------------------------ tune

/// Timestamps of one round, taken by the first- and last-registered
/// benchmark callbacks.  Between `rec_first` and `rec_last` every callback's
/// on_records ran (the record logger writes there); between `round_first`
/// and `round_last` every on_round ran.  The rest of the round is search:
/// task selection, the policy's tune_round (propose, cost model, measure,
/// commit) and the selector update.
struct RoundMarks {
  std::int64_t rec_first = 0, rec_last = 0;
  std::int64_t round_first = 0, round_last = 0;
};

struct MarkFirst : TuningCallback {
  std::vector<RoundMarks>* rounds = nullptr;
  void on_records(const TaskScheduler&, int,
                  const std::vector<MeasuredRecord>&) override {
    RoundMarks m;
    m.rec_first = now_ns();
    rounds->push_back(m);
  }
  void on_round(const TaskScheduler&, const RoundEvent&) override {
    rounds->back().round_first = now_ns();
  }
};

struct MarkLast : TuningCallback {
  std::vector<RoundMarks>* rounds = nullptr;
  void on_records(const TaskScheduler&, int,
                  const std::vector<MeasuredRecord>&) override {
    rounds->back().rec_last = now_ns();
  }
  void on_round(const TaskScheduler&, const RoundEvent&) override {
    rounds->back().round_last = now_ns();
  }
};

int run_tune(const std::map<std::string, std::string>& flags) {
  const std::string network = need(flags, "network");
  const std::string policy = need(flags, "policy");
  const std::int64_t trials = std::atoll(need(flags, "trials").c_str());
  const std::uint64_t seed = std::strtoull(need(flags, "seed").c_str(), nullptr, 10);
  const std::string log_path = need(flags, "log");
  const std::string out_path = need(flags, "out");
  const std::string spans_path =
      flags.count("spans") != 0 ? flags.at("spans") : std::string();

  if (!PolicyRegistry::instance().contains(policy)) {
    std::fprintf(stderr, "bench_tune: unknown policy %s\n", policy.c_str());
    return 2;
  }
  SearchOptions opts = quick_options(PolicyKind::kHarl, seed);
  opts.policy_name = policy;
  // A one-thread pool is the serial path, bit-identical to any pool size.
  // The default pool gives this tuning no speed-up, and its ~22700 worker
  // wake-ups per run would measure the host's thread wake-up latency.
  ThreadPool serial(1);
  opts.pool = &serial;
  if (auto kind = policy_kind_from_name(policy)) opts.policy = *kind;
  TuningSession session(make_network(network, 1), HardwareConfig::xeon_6226r(),
                        opts);

  RecordLogger logger;
  if (!logger.open(log_path, /*append=*/true)) {
    std::fprintf(stderr, "bench_tune: cannot open log %s\n", log_path.c_str());
    return 1;
  }
  std::vector<RoundMarks> rounds;
  rounds.reserve(static_cast<std::size_t>(trials));
  MarkFirst first;
  MarkLast last;
  first.rounds = &rounds;
  last.rounds = &rounds;
  session.add_callback(&first);
  session.add_callback(&logger);
  session.add_callback(&last);

  const std::int64_t ready_ns = now_ns();
  session.run(trials);
  const std::int64_t done_ns = now_ns();
  logger.close();

  const Measurer& m = session.measurer();
  json::Value out = json::Value::object();
  out.set("ready_ns", num(ready_ns));
  out.set("done_ns", num(done_ns));
  out.set("latency_ms", num(session.latency_ms()));
  out.set("trials_used", num(m.trials_used()));
  out.set("failed", num(m.failed()));
  json::Value rs = json::Value::array();
  std::int64_t prev_end = ready_ns;
  Tracer tracer(!spans_path.empty());
  const std::int64_t root = tracer.add("tune", ready_ns, done_ns);
  for (const RoundMarks& r : rounds) {
    // One round = [start, end, callback ns]: from the end of the previous
    // round to the end of this round's last on_round; the callback share is
    // the two callback windows.
    json::Value jr = json::Value::array();
    jr.push_back(num(prev_end));
    jr.push_back(num(r.round_last));
    jr.push_back(num((r.rec_last - r.rec_first) + (r.round_last - r.round_first)));
    rs.push_back(std::move(jr));
    std::int64_t id = tracer.add("search.round", prev_end, r.round_last, root);
    tracer.add("io.callback", r.rec_first, r.rec_last, id);
    tracer.add("io.callback", r.round_first, r.round_last, id);
    prev_end = r.round_last;
  }
  out.set("rounds", std::move(rs));
  if (!tracer.write(spans_path)) {
    std::fprintf(stderr, "bench_tune: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  if (!write_file(out_path, out.dump() + "\n")) {
    std::fprintf(stderr, "bench_tune: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------- netdef

int run_netdef(const std::map<std::string, std::string>& flags) {
  const HardwareConfig hw = HardwareConfig::xeon_6226r();
  json::Value out = json::Value::object();
  out.set("peak_flops", num(HardwareConfig::peak_flops_of(hw.similarity_vector())));
  json::Value nets = json::Value::object();
  for (const std::string& name : split(need(flags, "networks"), ',')) {
    // "<base>_b<batch>", the naming the records and the daemon use.
    std::size_t cut = name.rfind("_b");
    if (cut == std::string::npos) {
      std::fprintf(stderr, "bench_tune: bad network name %s\n", name.c_str());
      return 2;
    }
    Network net = make_network(name.substr(0, cut),
                               std::atoll(name.c_str() + cut + 2));
    json::Value tasks = json::Value::array();
    for (const Subgraph& g : net.subgraphs) {
      json::Value t = json::Value::object();
      t.set("name", json::Value::string(g.name()));
      t.set("weight", num(g.weight()));
      t.set("flops", num(g.total_flops()));
      json::Value stages = json::Value::array();
      for (const Stage& s : g.stages()) {
        json::Value extents = json::Value::array();
        for (const Axis& a : s.op.axes) extents.push_back(num(a.extent));
        stages.push_back(std::move(extents));
      }
      t.set("stages", std::move(stages));
      tasks.push_back(std::move(t));
    }
    nets.set(net.name, std::move(tasks));
  }
  out.set("networks", std::move(nets));
  return write_file(need(flags, "out"), out.dump() + "\n") ? 0 : 1;
}

// ---------------------------------------------------------------- replay

struct LoggedTask {
  const Subgraph* graph = nullptr;
  std::vector<Sketch> sketches;
  std::vector<Schedule> scheds;
  std::vector<double> times;
};

using LoggedTasks = std::map<std::pair<std::string, std::string>, LoggedTask>;

// Observations per shape that the rl replay feeds to act/forward.
constexpr std::size_t kRlObservations = 32;

/// PPO act/train and MLP forward once per distinct (observation, action
/// head) shape of the logged sketches, on observations of the logged
/// schedules themselves.  The agent is fresh, as HARL's per-sketch agent
/// is when it first tunes that sketch.
void replay_rl(const LoggedTasks& tasks, const HardwareConfig& hw,
               const FeatureExtractor& fx, Tracer* tr, std::int64_t parent) {
  const PpoConfig cfg = quick_options(PolicyKind::kHarl).harl.ppo;
  Rng rng(0x5eedULL);
  std::set<std::pair<int, std::vector<int>>> seen;
  for (const auto& kv : tasks) {
    const LoggedTask& t = kv.second;
    for (const Sketch& sk : t.sketches) {
      ActionSpace space(sk, hw.num_unroll_options());
      std::vector<std::vector<double>> obs;
      for (const Schedule& s : t.scheds) {
        if (s.sketch != &sk) continue;
        obs.push_back(rl_observation(fx, space, s));
        if (obs.size() == kRlObservations) break;
      }
      if (obs.empty()) continue;
      auto sizes = space.head_sizes();
      std::vector<int> heads(sizes.begin(), sizes.end());
      const int obs_dim = static_cast<int>(obs.front().size());
      if (!seen.insert({obs_dim, heads}).second) continue;  // shape done

      PpoAgent agent(obs_dim, heads, cfg, 7);
      int total = 0;
      for (int h : heads) total += h;
      Rng init(11);
      Mlp mlp({obs_dim, cfg.hidden_dim, cfg.hidden_dim, total}, init);
      for (int rep = 0; rep < 2; ++rep) {
        for (const std::vector<double>& o : obs) {
          std::int64_t t0 = now_ns();
          PpoAgent::ActResult a = agent.act(o, {}, rng);
          std::int64_t t1 = now_ns();
          std::vector<double> y = mlp.forward(o);
          std::int64_t t2 = now_ns();
          tr->add("rl.act", t0, t1, parent);
          tr->add("nn.forward", t1, t2, parent);
          PpoTransition tx;
          tx.obs = o;
          tx.actions = a.actions;
          tx.logp = a.logp;
          tx.value = a.value;
          tx.reward = rng.next_range(-1.0, 1.0);
          tx.next_value = a.value;
          agent.store(std::move(tx));
        }
      }
      for (int rep = 0; rep < 4; ++rep) {
        std::int64_t t0 = now_ns();
        agent.train(rng);
        tr->add("rl.train", t0, now_ns(), parent);
      }
    }
  }
}

/// Feature extraction and simulation of every logged schedule, then GBDT
/// fit and predict on the cost model's own rows for the largest task:
/// features of its schedules, labels best/time (XgbCostModel::refit), the
/// tuner's GBDT settings.  Returns the row count.
std::size_t replay_cost(const LoggedTasks& tasks, const HardwareConfig& hw,
                        const FeatureExtractor& fx, Tracer* tr,
                        std::int64_t parent, double* sink) {
  CostSimulator sim(hw);
  std::vector<double> row(FeatureExtractor::kNumFeatures);
  const LoggedTask* largest = nullptr;
  for (const auto& kv : tasks) {
    const LoggedTask& t = kv.second;
    if (largest == nullptr || t.scheds.size() > largest->scheds.size()) largest = &t;
    for (const Schedule& s : t.scheds) {
      std::int64_t t0 = now_ns();
      fx.extract_into(s, row.data());
      std::int64_t t1 = now_ns();
      *sink += sim.simulate_ms(s);
      std::int64_t t2 = now_ns();
      tr->add("features.extract", t0, t1, parent);
      tr->add("hwsim.simulate", t1, t2, parent);
    }
  }
  if (largest == nullptr || largest->scheds.empty()) return 0;
  const std::size_t rows = largest->scheds.size();
  std::vector<double> x(rows * FeatureExtractor::kNumFeatures);
  fx.extract_matrix_into(largest->scheds, x.data(), nullptr);
  double best = *std::min_element(largest->times.begin(), largest->times.end());
  std::vector<double> y;
  for (double ms : largest->times) y.push_back(best / ms);
  std::vector<double> pred(rows);
  for (int rep = 0; rep < 3; ++rep) {
    Gbdt model(quick_options(PolicyKind::kHarl).cost_model.gbdt);
    std::int64_t t0 = now_ns();
    model.fit(x, FeatureExtractor::kNumFeatures, y);
    tr->add("cost.fit", t0, now_ns(), parent);
    for (int p = 0; p < 3; ++p) {
      std::int64_t p0 = now_ns();
      model.predict_batch(x.data(), rows, pred.data());
      tr->add("cost.predict", p0, now_ns(), parent);
    }
    *sink += pred.front();
  }
  return rows;
}

int run_replay(const std::map<std::string, std::string>& flags) {
  const HardwareConfig hw = HardwareConfig::xeon_6226r();
  const std::vector<std::string> logs = split(need(flags, "logs"), ',');
  const std::vector<std::string> parts = split(need(flags, "parts"), ',');
  auto wants = [&parts](const char* part) {
    return std::find(parts.begin(), parts.end(), part) != parts.end();
  };
  Tracer tr(true);
  const std::int64_t t_begin = now_ns();
  const std::int64_t root = tr.add("replay", t_begin, t_begin);

  // Rebuild every healthy logged schedule against its task's sketches.
  TaskResolver resolve = make_builtin_resolver();
  LoggedTasks tasks;
  for (const std::string& path : logs) {
    if (!wants("rl") && !wants("cost")) break;
    for (const TuningRecord& rec : read_records(path)) {
      if (!rec.fail.empty() || !(rec.time_ms > 0)) continue;
      LoggedTask& t = tasks[{rec.network, rec.task}];
      if (t.graph == nullptr) {
        t.graph = resolve(rec.network, rec.task);
        if (t.graph == nullptr) continue;
        t.sketches = generate_sketches(*t.graph);
      }
      std::string error;
      Schedule s = schedule_from_record(rec, t.sketches, hw.num_unroll_options(),
                                        &error);
      if (s.sketch == nullptr) continue;
      t.scheds.push_back(std::move(s));
      t.times.push_back(rec.time_ms);
    }
  }

  FeatureExtractor fx(&hw);
  double sink = 0;
  std::size_t rows = 0;
  if (wants("rl")) replay_rl(tasks, hw, fx, &tr, root);
  if (wants("cost")) rows = replay_cost(tasks, hw, fx, &tr, root, &sink);
  if (wants("hydrate")) {
    KnowledgeCache cache;
    std::int64_t h0 = now_ns();
    std::int64_t hid = tr.add("serve.hydrate", h0, h0, root);
    std::size_t inserted = 0;
    for (const std::string& path : logs) {
      std::int64_t t0 = now_ns();
      inserted += cache.insert_log(path);
      tr.add("serve.insert_log", t0, now_ns(), hid);
    }
    sink += static_cast<double>(inserted);
    tr.set_end(hid, now_ns());
  }

  // Protocol replay on the workload's own messages.
  auto lines_of = [](const std::string& path) {
    std::vector<std::string> out;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) out.push_back(line);
    }
    return out;
  };
  if (flags.count("requests") != 0) {
    for (const std::string& line : lines_of(flags.at("requests"))) {
      for (int rep = 0; rep < 20; ++rep) {
        Request req;
        std::string error;
        std::int64_t t0 = now_ns();
        bool ok = request_from_json(line, &req, &error);
        tr.add("server.parse", t0, now_ns(), root);
        if (!ok) {
          std::fprintf(stderr, "bench_tune: unparsable request %s\n", line.c_str());
          return 1;
        }
      }
    }
  }
  if (flags.count("replies") != 0) {
    for (const std::string& line : lines_of(flags.at("replies"))) {
      Response resp;
      std::string error;
      if (!response_from_json(line, &resp, &error)) {
        std::fprintf(stderr, "bench_tune: unparsable reply %s\n", line.c_str());
        return 1;
      }
      for (int rep = 0; rep < 20; ++rep) {
        std::int64_t t0 = now_ns();
        std::string wire = response_to_json(resp);
        tr.add("server.serialize", t0, now_ns(), root);
        sink += static_cast<double>(wire.size());
      }
    }
  }

  tr.set_end(root, now_ns());
  json::Value out = json::Value::object();
  out.set("cost_rows", num(static_cast<std::int64_t>(rows)));
  out.set("sink", num(sink));
  if (!tr.write(need(flags, "spans"))) return 1;
  return write_file(need(flags, "out"), out.dump() + "\n") ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: bench_tune tune|netdef|replay --flag=value...\n");
    return 2;
  }
  const std::string mode = argv[1];
  const auto flags = parse_flags(argc, argv);
  if (mode == "tune") return run_tune(flags);
  if (mode == "netdef") return run_netdef(flags);
  if (mode == "replay") return run_replay(flags);
  std::fprintf(stderr, "bench_tune: unknown mode %s\n", mode.c_str());
  return 2;
}
