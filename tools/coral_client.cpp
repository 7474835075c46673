// coral_client: command-line client for coral_serve (docs/SERVER.md).
//
//   coral_client --port=N [--host=ADDR] [--consult-file=FILE.crl]
//                [--query='?- p(X).' ...] [--count=N] [--concurrency=N]
//                [--deadline-ms=N] [--stats] [--expect-rows=N]
//
// Speaks the JSONL framing: opens --concurrency connections (each its
// own server session), sends each --query --count times round-robin,
// and prints a summary line
//
//   ok=N error=N timeout=N shed=N rows=N
//
// --consult-file commits a program first (on a separate connection, so
// queries observe it). --deadline-ms sets the session deadline on every
// connection before querying. --stats fetches and prints the server
// metrics JSON afterwards. --expect-rows asserts that every successful
// query returned exactly N rows (exit 1 otherwise) — the server-e2e
// harness uses this for snapshot-consistency checks.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <coral/server.h>

namespace {

int Connect(const std::string& host, int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendLine(int fd, const std::string& line) {
  std::string framed = line + "\n";
  size_t off = 0;
  while (off < framed.size()) {
    ssize_t n = send(fd, framed.data() + off, framed.size() - off,
                     MSG_NOSIGNAL);
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
    char chunk[8192];
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf->append(chunk, static_cast<size_t>(n));
  }
}

struct Tally {
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> error{0};
  std::atomic<uint64_t> timeout{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> rows{0};
  std::atomic<bool> row_mismatch{false};
};

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  std::vector<std::string> queries;
  std::string consult_file;
  int count = 1;
  int concurrency = 1;
  long long deadline_ms = -1;
  long long expect_rows = -1;
  bool stats = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--port=", 0) == 0) {
      port = std::atoi(arg.c_str() + 7);
    } else if (arg.rfind("--host=", 0) == 0) {
      host = arg.substr(7);
    } else if (arg.rfind("--query=", 0) == 0) {
      queries.push_back(arg.substr(8));
    } else if (arg.rfind("--consult-file=", 0) == 0) {
      consult_file = arg.substr(15);
    } else if (arg.rfind("--count=", 0) == 0) {
      count = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--concurrency=", 0) == 0) {
      concurrency = std::atoi(arg.c_str() + 14);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      deadline_ms = std::atoll(arg.c_str() + 14);
    } else if (arg.rfind("--expect-rows=", 0) == 0) {
      expect_rows = std::atoll(arg.c_str() + 14);
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: coral_client --port=N [--host=ADDR]"
                   " [--consult-file=FILE] [--query='?- p(X).' ...]"
                   " [--count=N] [--concurrency=N] [--deadline-ms=N]"
                   " [--expect-rows=N] [--stats]\n";
      return 0;
    } else {
      std::cerr << "coral_client: unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (port == 0) {
    std::cerr << "coral_client: --port is required\n";
    return 2;
  }

  if (!consult_file.empty()) {
    std::ifstream in(consult_file);
    if (!in) {
      std::cerr << "coral_client: cannot open " << consult_file << "\n";
      return 2;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    int fd = Connect(host, port);
    if (fd < 0) {
      std::cerr << "coral_client: cannot connect to " << host << ":" << port
                << "\n";
      return 1;
    }
    std::string request = coral::server::JsonWriter()
                              .Field("op", "consult")
                              .Field("program", text)
                              .Build();
    std::string buf, line;
    if (!SendLine(fd, request) || !RecvLine(fd, &buf, &line)) {
      std::cerr << "coral_client: consult send failed\n";
      close(fd);
      return 1;
    }
    close(fd);
    auto parsed = coral::server::ParseJson(line);
    if (!parsed.ok() || parsed.value().GetString("code") != "" ||
        parsed.value().Find("ok") == nullptr ||
        !parsed.value().Find("ok")->bool_value) {
      std::cerr << "coral_client: consult failed: " << line << "\n";
      return 1;
    }
    std::cout << "consulted " << consult_file << "\n";
  }

  Tally tally;
  if (!queries.empty()) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(concurrency));
    for (int w = 0; w < concurrency; ++w) {
      workers.emplace_back([&, w] {
        int fd = Connect(host, port);
        if (fd < 0) {
          tally.error.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        std::string buf, line;
        if (deadline_ms >= 0) {
          std::string req = coral::server::JsonWriter()
                                .Field("op", "deadline")
                                .Field("ms", static_cast<int64_t>(
                                                 deadline_ms))
                                .Build();
          if (!SendLine(fd, req) || !RecvLine(fd, &buf, &line)) {
            close(fd);
            tally.error.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
        // Worker w sends every (query, repetition) pair congruent to w
        // mod concurrency, so load spreads without coordination.
        long long idx = 0;
        for (int rep = 0; rep < count; ++rep) {
          for (const std::string& q : queries) {
            if (idx++ % concurrency != w) continue;
            std::string req = coral::server::JsonWriter()
                                  .Field("op", "query")
                                  .Field("q", q)
                                  .Build();
            if (!SendLine(fd, req) || !RecvLine(fd, &buf, &line)) {
              tally.error.fetch_add(1, std::memory_order_relaxed);
              close(fd);
              return;
            }
            auto parsed = coral::server::ParseJson(line);
            if (!parsed.ok()) {
              tally.error.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            const coral::server::JsonValue& resp = parsed.value();
            const coral::server::JsonValue* ok = resp.Find("ok");
            if (ok != nullptr && ok->bool_value) {
              tally.ok.fetch_add(1, std::memory_order_relaxed);
              int64_t n = resp.GetInt("count", 0);
              tally.rows.fetch_add(static_cast<uint64_t>(n),
                                   std::memory_order_relaxed);
              if (expect_rows >= 0 && n != expect_rows) {
                tally.row_mismatch.store(true, std::memory_order_relaxed);
              }
            } else {
              std::string code = resp.GetString("code");
              if (code == "DeadlineExceeded") {
                tally.timeout.fetch_add(1, std::memory_order_relaxed);
              } else if (code == "Unavailable") {
                tally.shed.fetch_add(1, std::memory_order_relaxed);
              } else {
                tally.error.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
        }
        close(fd);
      });
    }
    for (std::thread& t : workers) t.join();
  }

  if (stats) {
    int fd = Connect(host, port);
    if (fd >= 0) {
      std::string buf, line;
      std::string req =
          coral::server::JsonWriter().Field("op", "stats").Build();
      if (SendLine(fd, req) && RecvLine(fd, &buf, &line)) {
        std::cout << line << "\n";
      }
      close(fd);
    }
  }

  std::cout << "ok=" << tally.ok.load() << " error=" << tally.error.load()
            << " timeout=" << tally.timeout.load()
            << " shed=" << tally.shed.load() << " rows=" << tally.rows.load()
            << "\n";
  if (tally.row_mismatch.load()) {
    std::cerr << "coral_client: row count mismatch (--expect-rows="
              << expect_rows << ")\n";
    return 1;
  }
  return tally.error.load() == 0 ? 0 : 1;
}
