// In-process tests of the query server stack: the admission queue's
// shed/drain behavior, protocol dispatch, and a real Server instance
// driven over loopback sockets with both wire framings (JSONL and
// HTTP one-shot). The cross-process path is tools/server_e2e.sh.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/core/database.h"
#include "src/server/admission.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/util/json.h"
#include "src/util/sync.h"

namespace coral::server {
namespace {

// ---- admission queue -------------------------------------------------------

TEST(AdmissionTest, ShedsWhenQueueFull) {
  AdmissionQueue queue(/*max_inflight=*/1, /*max_queue=*/1);
  Mutex mu;
  CondVar cv;
  bool release = false;
  std::atomic<int> ran{0};

  // Occupy the single worker with a job that blocks until released.
  ASSERT_TRUE(queue
                  .Submit([&] {
                    MutexLock lock(&mu);
                    while (!release) cv.Wait(mu);
                    ran.fetch_add(1);
                  })
                  .ok());
  // Give the worker time to dequeue the blocker so the queue is empty.
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Status probe = queue.Submit([&] { ran.fetch_add(1); });
    if (probe.ok()) break;  // queue slot taken: worker picked up blocker
    ASSERT_EQ(probe.code(), StatusCode::kUnavailable);
  }
  // Queue now holds one waiter; the next submission must shed.
  Status shed = queue.Submit([&] { ran.fetch_add(1); });
  EXPECT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);

  {
    MutexLock lock(&mu);
    release = true;
  }
  cv.NotifyAll();
  queue.Shutdown();  // drains the queued waiter before joining
  EXPECT_EQ(ran.load(), 2);
}

TEST(AdmissionTest, RefusesAfterShutdown) {
  AdmissionQueue queue(2, 8);
  queue.Shutdown();
  Status after = queue.Submit([] {});
  EXPECT_EQ(after.code(), StatusCode::kUnavailable);
}

// ---- protocol dispatch (no sockets) ---------------------------------------

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest() {
    ctx_.db = &db_;
    ctx_.metrics = &metrics_;
  }
  Database db_;
  obs::ServerMetrics metrics_;
  ServerContext ctx_;
};

TEST_F(ProtocolTest, QueryConsultBindRoundTrip) {
  ClientSession session(&ctx_);
  std::string consult = session.Handle(
      JsonWriter()
          .Field("op", "consult")
          .Field("program", "edge(1, 2).\nedge(1, 3).\n")
          .Build());
  EXPECT_NE(consult.find("\"ok\":true"), std::string::npos) << consult;

  std::string bind = session.Handle(
      R"({"op":"bind","name":"src","value":"1"})");
  EXPECT_NE(bind.find("\"ok\":true"), std::string::npos);

  std::string query = session.Handle(
      R"({"op":"query","q":"?- edge($src, X)."})");
  EXPECT_NE(query.find("\"ok\":true"), std::string::npos) << query;
  EXPECT_NE(query.find("\"count\":2"), std::string::npos) << query;

  std::string load = session.Handle(
      R"({"op":"load","facts":"edge(2, 3)."})");
  EXPECT_NE(load.find("\"inserted\":1"), std::string::npos) << load;

  std::string stats = session.Handle(R"({"op":"stats"})");
  EXPECT_NE(stats.find("\"queries\":1"), std::string::npos) << stats;

  std::string bad = session.Handle("this is not json");
  EXPECT_NE(bad.find("\"ok\":false"), std::string::npos);

  std::string close = session.Handle(R"({"op":"close"})");
  EXPECT_TRUE(session.closed());
  EXPECT_EQ(metrics_.queries(), 1u);
  EXPECT_GE(metrics_.errors(), 1u);
}

TEST_F(ProtocolTest, RejectsWireNumbersThatAreNotInt64) {
  // Casting these doubles to int64_t would be undefined behaviour: inf,
  // out of range, and (silently truncated) non-integral.
  ClientSession session(&ctx_);
  for (const char* req : {R"({"op":"deadline","ms":1e999})",
                          R"({"op":"deadline","ms":1e300})",
                          R"({"op":"bind","name":"x","value":2.5})",
                          R"({"op":"bind","name":"x","value":1e300})"}) {
    std::string resp = session.Handle(req);
    EXPECT_NE(resp.find("\"ok\":false"), std::string::npos) << req;
    EXPECT_NE(resp.find("\"code\":\"InvalidArgument\""), std::string::npos)
        << req << " -> " << resp;
  }
  EXPECT_EQ(metrics_.errors(), 4u);
}

TEST_F(ProtocolTest, HugeDeadlineSaturates) {
  // 9e18 ms is a valid int64 but overflows as nanoseconds; the deadline
  // saturates to "never" and the next query runs.
  ClientSession session(&ctx_);
  std::string consult = session.Handle(
      R"({"op":"consult","program":"edge(1, 2).\nedge(1, 3).\n"})");
  EXPECT_NE(consult.find("\"ok\":true"), std::string::npos) << consult;
  std::string deadline =
      session.Handle(R"({"op":"deadline","ms":9e18})");
  EXPECT_NE(deadline.find("\"deadline_ms\":9000000000000000000"),
            std::string::npos)
      << deadline;
  std::string query = session.Handle(R"({"op":"query","q":"?- edge(1, X)."})");
  EXPECT_NE(query.find("\"ok\":true"), std::string::npos) << query;
  EXPECT_NE(query.find("\"count\":2"), std::string::npos) << query;
}

TEST_F(ProtocolTest, DeeplyNestedRequestIsRejected) {
  // Nesting is bounded, so a hostile line is an error response instead
  // of a parser stack overflow, and the session keeps serving.
  ClientSession session(&ctx_);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  for (const std::string& req : {std::string(100000, '['), objects}) {
    std::string resp = session.Handle(req);
    EXPECT_NE(resp.find("\"ok\":false"), std::string::npos) << resp;
    EXPECT_NE(resp.find("\"code\":\"InvalidArgument\""), std::string::npos)
        << resp;
  }
  std::string ping = session.Handle(R"({"op":"ping"})");
  EXPECT_NE(ping.find("\"ok\":true"), std::string::npos) << ping;
}

TEST_F(ProtocolTest, ConsultAndLoadRequireTheirTextMember) {
  // "text" is not a member of either op: a request without "program" or
  // "facts" must fail rather than succeed having loaded nothing.
  ClientSession session(&ctx_);
  for (const char* req : {R"({"op":"consult","text":"edge(1, 2)."})",
                          R"({"op":"load","text":"edge(1, 2)."})",
                          R"({"op":"load","facts":7})"}) {
    std::string resp = session.Handle(req);
    EXPECT_NE(resp.find("\"code\":\"InvalidArgument\""), std::string::npos)
        << req << " -> " << resp;
  }
  EXPECT_EQ(metrics_.errors(), 3u);
  // An empty text is still a legal (empty) program.
  std::string empty = session.Handle(R"({"op":"consult","program":""})");
  EXPECT_NE(empty.find("\"ok\":true"), std::string::npos) << empty;
  std::string query = session.Handle(R"({"op":"query","q":"?- edge(1, X)."})");
  EXPECT_NE(query.find("\"count\":0"), std::string::npos) << query;
}

// ---- full server over loopback --------------------------------------------

int ConnectLoopback(int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool RecvLine(int fd, std::string* buf, std::string* line) {
  while (true) {
    size_t nl = buf->find('\n');
    if (nl != std::string::npos) {
      *line = buf->substr(0, nl);
      buf->erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf->append(chunk, static_cast<size_t>(n));
  }
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Consult("module paths.\n"
                            "export path(bf, ff).\n"
                            "path(X, Y) :- edge(X, Y).\n"
                            "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
                            "end_module.\n"
                            "edge(1, 2). edge(2, 3). edge(3, 4).\n")
                    .ok());
    ServerOptions opts;
    opts.port = 0;
    opts.max_inflight = 4;
    opts.max_queue = 16;
    server_ = std::make_unique<Server>(&db_, opts);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override { server_->Stop(); }

  Database db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, JsonlSessionLifecycle) {
  int fd = ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);
  std::string buf, line;

  ASSERT_TRUE(SendAll(fd, "{\"op\":\"ping\"}\n"));
  ASSERT_TRUE(RecvLine(fd, &buf, &line));
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);

  // Pipelined requests answer in order on one connection.
  ASSERT_TRUE(SendAll(fd,
                      "{\"op\":\"query\",\"q\":\"?- path(1, X).\"}\n"
                      "{\"op\":\"query\",\"q\":\"?- path(2, X).\"}\n"));
  ASSERT_TRUE(RecvLine(fd, &buf, &line));
  EXPECT_NE(line.find("\"count\":3"), std::string::npos) << line;
  ASSERT_TRUE(RecvLine(fd, &buf, &line));
  EXPECT_NE(line.find("\"count\":2"), std::string::npos) << line;

  ASSERT_TRUE(SendAll(fd, "{\"op\":\"close\"}\n"));
  ASSERT_TRUE(RecvLine(fd, &buf, &line));
  EXPECT_NE(line.find("\"closed\":true"), std::string::npos);
  close(fd);
}

TEST_F(ServerTest, ConcurrentClientsDuringWriterCommits) {
  constexpr int kClients = 8;
  constexpr int kQueriesEach = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, &failures] {
      int fd = ConnectLoopback(server_->port());
      if (fd < 0) {
        failures.fetch_add(1);
        return;
      }
      std::string buf, line;
      for (int i = 0; i < kQueriesEach; ++i) {
        if (!SendAll(fd, "{\"op\":\"query\",\"q\":\"?- path(1, X).\"}\n") ||
            !RecvLine(fd, &buf, &line) ||
            line.find("\"ok\":true") == std::string::npos) {
          failures.fetch_add(1);
          break;
        }
      }
      close(fd);
    });
  }
  // Writer commits land mid-flight; the chain only grows, so answer
  // counts grow monotonically and every response stays well-formed.
  for (int b = 0; b < 10; ++b) {
    std::string fact =
        "edge(" + std::to_string(4 + b) + ", " + std::to_string(5 + b) +
        ").\n";
    ASSERT_TRUE(db_.Consult(fact).ok());
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->metrics()->queries(),
            static_cast<uint64_t>(kClients * kQueriesEach));
}

TEST_F(ServerTest, HttpOneShotStatsAndQuery) {
  int fd = ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"));
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  close(fd);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"open_sessions\""), std::string::npos);

  fd = ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);
  std::string body = "{\"op\":\"query\",\"q\":\"?- path(1, X).\"}";
  std::string request = "POST /query HTTP/1.1\r\nHost: x\r\n"
                        "Content-Length: " + std::to_string(body.size()) +
                        "\r\n\r\n" + body;
  ASSERT_TRUE(SendAll(fd, request));
  response.clear();
  while ((n = recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  close(fd);
  EXPECT_NE(response.find("\"count\":3"), std::string::npos) << response;
}

TEST_F(ServerTest, DeadlineExceededOverTheWire) {
  // A cyclic inequality chain over a wide fact base: unsatisfiable but
  // not statically provable, and every filter needs two bound variables,
  // so the join reorderer cannot short-circuit — the enumeration blows
  // the 10 ms budget.
  std::string wide;
  for (int i = 0; i < 48; ++i) {
    wide += "wide(" + std::to_string(i) + ").\n";
  }
  ASSERT_TRUE(db_.Consult(wide).ok());

  int fd = ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);
  std::string buf, line;
  ASSERT_TRUE(SendAll(fd, "{\"op\":\"deadline\",\"ms\":10}\n"));
  ASSERT_TRUE(RecvLine(fd, &buf, &line));
  ASSERT_TRUE(SendAll(
      fd,
      "{\"op\":\"query\",\"q\":"
      "\"?- wide(A), wide(B), wide(C), wide(D), "
      "A < B, B < C, C < D, D < A.\"}\n"));
  ASSERT_TRUE(RecvLine(fd, &buf, &line));
  EXPECT_NE(line.find("DeadlineExceeded"), std::string::npos) << line;
  close(fd);
  EXPECT_GE(server_->metrics()->timeouts(), 1u);
}

TEST_F(ServerTest, StopWithConnectedClientsIsClean) {
  int fd = ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);
  std::string buf, line;
  ASSERT_TRUE(SendAll(fd, "{\"op\":\"ping\"}\n"));
  ASSERT_TRUE(RecvLine(fd, &buf, &line));
  server_->Stop();  // idempotent with TearDown; client still connected
  close(fd);
}

}  // namespace
}  // namespace coral::server
