#include "perfbench/layers.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <unordered_set>

#include <coral/server.h>

#include "src/analysis/absint.h"
#include "src/analysis/analyzer.h"
#include "src/lang/parser.h"
#include "src/rewrite/rewriter.h"
#include "src/vm/compiler.h"
#include "src/vm/verifier.h"

namespace perfbench {

namespace {

/// Session reads evaluate transient instances against a snapshot and
/// can run orders of magnitude longer than embedded ones (saved
/// instances and argument indexes are not used there); this deadline
/// keeps the traced run bounded. A read that hits it reports the
/// deadline as a lower bound.
constexpr int64_t kSessionDeadlineMs = 2000;

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

uint64_t Load(const std::atomic<uint64_t>& a) {
  return a.load(std::memory_order_relaxed);
}

/// One JSONL client connection.
class Client {
 public:
  explicit Client(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd_ >= 0 &&
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool ok() const { return fd_ >= 0; }

  /// Sends one request line and returns the response line ("" on a
  /// broken connection).
  std::string RoundTrip(const std::string& request) {
    std::string framed = request + "\n";
    size_t off = 0;
    while (off < framed.size()) {
      ssize_t n = send(fd_, framed.data() + off, framed.size() - off,
                       MSG_NOSIGNAL);
      if (n <= 0) return "";
      off += static_cast<size_t>(n);
    }
    size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) {
      char chunk[65536];
      ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<size_t>(n));
    }
    std::string line = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return line;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

bool IsOk(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

/// The number after `"key":` in a flat response, or -1.
double NumberField(const std::string& response, const std::string& key) {
  size_t at = response.find("\"" + key + "\":");
  if (at == std::string::npos) return -1;
  return std::atof(response.c_str() + at + key.size() + 3);
}

}  // namespace

void MeasureCompilePipeline(coral::Database* db, const std::string& text,
                            Tracer* tracer, Result* out) {
  const coral::BuiltinRegistry* builtins = db->builtins();
  auto is_builtin = [builtins](const std::string& name, uint32_t arity) {
    return builtins->Find(name, arity) != nullptr;
  };
  auto base_card = [db](const coral::PredRef& pred) {
    coral::Relation* rel = db->FindBaseRelation(pred);
    if (rel == nullptr) return coral::absint::Card::kMany;
    size_t n = rel->size();
    if (n == 0) return coral::absint::Card::kFew;
    if (n == 1) return coral::absint::Card::kOne;
    return n <= 16 ? coral::absint::Card::kFew : coral::absint::Card::kMany;
  };

  int64_t t0 = NowNs();
  coral::Program prog;
  {
    SpanScope span(tracer, "lang.parse");
    coral::Parser parser(text, db->factory());
    auto parsed = parser.ParseProgram();
    if (!parsed.ok()) {
      out->Problem("pipeline parse: " + parsed.status().ToString());
      return;
    }
    prog = std::move(parsed).value();
  }
  double parse_ms = MsSince(t0);

  // Predicates owned by some module: the compiler treats them as module
  // calls rather than base relations when another module reads them.
  std::unordered_set<coral::PredRef, coral::PredRefHash> module_preds;
  for (const coral::ModuleDecl& mod : prog.modules) {
    for (const coral::Rule& r : mod.rules) {
      module_preds.insert(r.head.pred_ref());
    }
  }

  double analysis_ms = 0, rewrite_ms = 0, compile_ms = 0;
  uint64_t rules_out = 0, instructions = 0;
  for (const coral::ModuleDecl& mod : prog.modules) {
    std::unordered_set<coral::PredRef, coral::PredRefHash> own;
    for (const coral::Rule& r : mod.rules) own.insert(r.head.pred_ref());
    {
      SpanScope span(tracer, "analysis.module");
      int64_t t = NowNs();
      coral::AnalyzerOptions aopts;
      aopts.is_builtin = is_builtin;
      coral::DiagnosticList diags = coral::AnalyzeModule(mod, aopts);
      analysis_ms += MsSince(t);
      if (diags.ShouldReject(false)) {
        out->Problem("pipeline analysis rejected module " + mod.name);
        return;
      }
    }
    for (const coral::QueryFormDecl& form : mod.exports) {
      coral::RewriteOptions ropts;
      ropts.auto_reorder = db->auto_optimize();
      ropts.auto_index = db->auto_optimize();
      ropts.is_builtin = is_builtin;
      ropts.base_card = base_card;
      int64_t t = NowNs();
      int32_t rs = tracer->Begin("rewrite.form");
      auto rewritten = coral::RewriteModule(mod, form, db->factory(), ropts);
      tracer->End(rs);
      rewrite_ms += MsSince(t);
      if (!rewritten.ok()) {
        out->Problem("pipeline rewrite: " + rewritten.status().ToString());
        return;
      }
      const coral::RewrittenProgram& rp = rewritten.value();
      rules_out += rp.rules.size();

      t = NowNs();
      int32_t cs = tracer->Begin("vm.compile");
      coral::vm::CompileEnv cenv;
      cenv.is_builtin = is_builtin;
      cenv.is_module_pred = [&](const coral::PredRef& p) {
        return module_preds.count(p) > 0 && own.count(p) == 0;
      };
      coral::vm::ModuleProgram mp = coral::vm::CompileModule(rp, mod, cenv);
      tracer->End(cs);
      compile_ms += MsSince(t);
      for (const auto& scc : mp.sccs) {
        for (const auto* table : {&scc.versions, &scc.once}) {
          for (const auto& p : *table) {
            if (p != nullptr) instructions += p->code.size();
          }
        }
      }
      if (mp.compiled == 0) continue;

      // The audit needs the absint facts; the module manager computes
      // them for the same purpose, so they count as analysis time.
      t = NowNs();
      int32_t as = tracer->Begin("analysis.absint");
      coral::absint::AbsIntOptions xopts;
      xopts.is_builtin = is_builtin;
      xopts.base_card = base_card;
      if (rp.answer_pred.sym != nullptr && !rp.answer_adornment.empty()) {
        std::vector<bool> bound;
        for (char c : rp.answer_adornment) bound.push_back(c == 'b');
        xopts.seeds[rp.answer_pred] = std::move(bound);
      }
      if (rp.uses_magic && rp.seed_pred.sym != nullptr) {
        xopts.assumed_facts.insert(rp.seed_pred);
      }
      for (const auto& [magic, done] : rp.done_of) {
        xopts.assumed_facts.insert(done);
      }
      coral::absint::AnalysisResult facts =
          coral::absint::AnalyzeRules(rp.rules, rp.graph, xopts);
      tracer->End(as);
      analysis_ms += MsSince(t);

      t = NowNs();
      int32_t vs = tracer->Begin("vm.audit");
      coral::vm::AuditOptions vopts;
      vopts.rewritten = &rp;
      vopts.decl = &mod;
      vopts.facts = &facts;
      vopts.index_plan_authoritative = db->auto_optimize();
      coral::vm::ModuleAudit audit = coral::vm::AuditModule(mp, vopts);
      tracer->End(vs);
      compile_ms += MsSince(t);
      if (!audit.ok()) out->Problem("pipeline audit rejected " + mod.name);
    }
  }
  out->Put("lang.parse_ms", parse_ms, "ms");
  out->Put("analysis.ms", analysis_ms, "ms");
  out->Put("rewrite.ms", rewrite_ms, "ms");
  out->Put("rewrite.rules_out", static_cast<double>(rules_out), "count");
  out->Put("vm.compile_ms", compile_ms, "ms");
  out->Put("vm.instructions", static_cast<double>(instructions), "count");
}

void MeasureReadPaths(coral::Database* db, const std::vector<ReadOp>& ops,
                      Tracer* tracer, Result* out) {
  if (ops.empty()) return;
  const double n = static_cast<double>(ops.size());

  double embedded_ms = 0, write_us = 0;
  for (const ReadOp& op : ops) {
    for (const std::string& q : op) {
      int64_t t = NowNs();
      auto r = [&]() {
        SpanScope span(tracer, "core.embedded_eval");
        return db->EvalQuery(q);
      }();
      embedded_ms += MsSince(t);
      if (!r.ok()) {
        out->Problem("embedded read: " + r.status().ToString());
        continue;
      }
      // The answer rows as the server renders them.
      SpanScope span(tracer, "server.json_write");
      t = NowNs();
      std::string rows = "[";
      for (size_t i = 0; i < r->rows.size(); ++i) {
        if (i > 0) rows += ',';
        coral::server::JsonWriter row;
        for (const auto& [name, term] : r->rows[i].bindings) {
          row.Field(name, term->ToString());
        }
        rows += row.Build();
      }
      rows += ']';
      write_us += MsSince(t) * 1e3;
    }
  }

  double session_ms = 0;
  {
    coral::Session session(db, kSessionDeadlineMs);
    for (const ReadOp& op : ops) {
      for (const std::string& q : op) {
        SpanScope span(tracer, "core.session_eval");
        int64_t t = NowNs();
        auto r = session.EvalQuery(q);
        session_ms += MsSince(t);
        if (r.status().code() == coral::StatusCode::kDeadlineExceeded) {
          out->record["session_read"] = "hit the deadline: a lower bound";
        } else if (!r.ok()) {
          out->Problem("session read: " + r.status().ToString());
        }
      }
    }
  }

  // Server dispatch without the wire: the request line a client would
  // send, parsed and handled in-process.
  coral::obs::ServerMetrics metrics;
  coral::server::ServerContext ctx;
  ctx.db = db;
  ctx.metrics = &metrics;
  ctx.default_deadline_ms = kSessionDeadlineMs;
  coral::server::ClientSession client(&ctx);
  double handle_ms = 0, parse_us = 0;
  uint64_t requests = 0;
  for (const ReadOp& op : ops) {
    for (const std::string& q : op) {
      std::string line =
          coral::server::JsonWriter().Field("op", "query").Field("q", q)
              .Build();
      {
        SpanScope span(tracer, "server.json_parse");
        int64_t t = NowNs();
        auto parsed = coral::server::ParseJson(line);
        parse_us += MsSince(t) * 1e3;
        if (!parsed.ok()) out->Problem("json parse of own request failed");
      }
      {
        SpanScope span(tracer, "server.handle");
        int64_t t = NowNs();
        std::string response = client.Handle(line);
        handle_ms += MsSince(t);
        if (response.find("DeadlineExceeded") != std::string::npos) {
          out->record["server_handle"] = "hit the deadline: a lower bound";
        } else if (!IsOk(response)) {
          out->Problem("server dispatch: " + response.substr(0, 200));
        }
      }
      ++requests;
    }
  }
  double per_req = static_cast<double>(requests);
  out->Put("core.eval_ms", embedded_ms / n, "ms");
  out->Put("core.session_eval_ms", session_ms / n, "ms");
  out->Put("core.snapshot_penalty",
           embedded_ms > 0 ? session_ms / embedded_ms : 0, "ratio");
  out->Put("server.handle_ms", handle_ms / per_req, "ms");
  out->Put("server.json_parse_us", parse_us / per_req, "us");
  out->Put("server.json_write_us", write_us / per_req, "us");
}

void MeasureServerRoundTrips(coral::Database* db,
                             const std::vector<std::string>& queries,
                             Tracer* tracer, Result* out) {
  coral::server::ServerOptions so;
  so.port = 0;
  so.default_deadline_ms = kSessionDeadlineMs;
  coral::server::Server server(db, so);
  coral::Status st = server.Start();
  if (!st.ok()) {
    out->Problem("server start: " + st.ToString());
    return;
  }
  Samples eval_ms, wire_ms;
  {
    Client client(server.port());
    if (!client.ok()) out->Problem("loopback connect failed");
    for (const std::string& q : queries) {
      if (!client.ok()) break;
      std::string request =
          coral::server::JsonWriter().Field("op", "query").Field("q", q)
              .Build();
      SpanScope span(tracer, "server.round_trip");
      int64_t t = NowNs();
      std::string response = client.RoundTrip(request);
      double ms = MsSince(t);
      if (!IsOk(response)) {
        out->Problem("server round trip: " + response.substr(0, 200));
        continue;
      }
      double server_ms = NumberField(response, "elapsed_ms");
      eval_ms.Add(server_ms);
      wire_ms.Add(ms - server_ms);
    }
  }
  coral::obs::ServerMetrics* m = server.metrics();
  out->Put("server.side_p50_ms", eval_ms.p(0.5), "ms");
  out->Put("server.wire_ms", wire_ms.p(0.5), "ms");
  out->Put("server.shed", static_cast<double>(m->shed()), "count");
  out->Put("server.errors", static_cast<double>(m->errors()), "count");
  out->Put("server.timeouts", static_cast<double>(m->timeouts()), "count");
  server.Stop();
}

void MeasureSnapshotAcquire(coral::Database* db,
                            const std::function<void()>& commit,
                            Result* out) {
  commit();
  int64_t t = NowNs();
  auto view = db->AcquireReadSnapshot();
  out->Put("rel.snapshot_acquire_ms", MsSince(t), "ms");
}

Counters Counters::Take(coral::Database* db) {
  Counters c;
  const coral::obs::VmCounters& vm = *db->vm_counters();
  c.vm_applications = Load(vm.applications);
  c.vm_probe_index = Load(vm.probe_index);
  c.vm_scan_full = Load(vm.scan_full);
  c.vm_scan_delta = Load(vm.scan_delta);
  c.vm_insert = Load(vm.insert);
  c.vm_fallbacks = Load(vm.runtime_fallbacks) + Load(vm.compile_skips) +
                   Load(vm.bind_fallbacks);
  c.vm_probe_scan_fallbacks = Load(vm.probe_scan_fallbacks);
  for (const coral::obs::ModuleProfile* p : db->stats()->profiles()) {
    c.iterations += p->total_iterations();
    c.solutions += p->total_solutions();
    c.derived += p->total_derived();
    c.inserted += p->total_inserted();
  }
  const coral::obs::MaintenanceCounters& m = db->maintenance_counters();
  c.maint_maintained = Load(m.maintained);
  c.maint_invalidated = Load(m.invalidated);
  c.maint_derived_inserted = Load(m.derived_inserted);
  c.maint_derived_deleted = Load(m.derived_deleted);
  c.maint_rederived = Load(m.rederived);
  c.hashcons_entries = db->factory()->hashcons_size();
  c.bytes_allocated = db->factory()->bytes_allocated();
  return c;
}

void PutCounterDeltas(const Counters& a, const Counters& b, uint64_t ops,
                      Result* out) {
  const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
  auto per_op = [&](const char* name, uint64_t before, uint64_t after,
                    const char* unit) {
    double d = after >= before ? static_cast<double>(after - before) : 0.0;
    out->Put(name, d / n, unit);
    return d;
  };
  per_op("vm.applications", a.vm_applications, b.vm_applications, "count");
  double probes =
      per_op("vm.probe_index", a.vm_probe_index, b.vm_probe_index, "count");
  per_op("vm.scan_full", a.vm_scan_full, b.vm_scan_full, "count");
  per_op("vm.scan_delta", a.vm_scan_delta, b.vm_scan_delta, "count");
  per_op("vm.insert", a.vm_insert, b.vm_insert, "count");
  per_op("vm.fallbacks", a.vm_fallbacks, b.vm_fallbacks, "count");
  double degraded = per_op("vm.probe_scan_fallbacks",
                           a.vm_probe_scan_fallbacks,
                           b.vm_probe_scan_fallbacks, "count");
  out->Put("vm.probe_hit_ratio",
           probes + degraded > 0 ? probes / (probes + degraded) : 0, "ratio");

  per_op("core.iterations", a.iterations, b.iterations, "count");
  per_op("core.solutions", a.solutions, b.solutions, "count");
  double derived = per_op("core.derived", a.derived, b.derived, "count");
  double inserted = per_op("core.inserted", a.inserted, b.inserted, "count");
  out->Put("core.dup_ratio", derived > 0 ? inserted / derived : 0, "ratio");

  per_op("maint.derived_inserted", a.maint_derived_inserted,
         b.maint_derived_inserted, "count");
  per_op("maint.derived_deleted", a.maint_derived_deleted,
         b.maint_derived_deleted, "count");
  per_op("maint.rederived", a.maint_rederived, b.maint_rederived, "count");
  double maintained = per_op("maint.maintained", a.maint_maintained,
                             b.maint_maintained, "count");
  double invalidated = per_op("maint.invalidated", a.maint_invalidated,
                              b.maint_invalidated, "count");
  out->Put("maint.maintained_frac",
           maintained + invalidated > 0
               ? maintained / (maintained + invalidated)
               : 0,
           "ratio");

  per_op("data.hashcons_entries", a.hashcons_entries, b.hashcons_entries,
         "count");
  per_op("data.bytes_allocated", a.bytes_allocated, b.bytes_allocated,
         "bytes");
}

}  // namespace perfbench
