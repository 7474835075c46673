#include "src/server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

#include "src/util/json.h"
#include "src/util/logging.h"

namespace coral::server {

namespace {

// A connection's input buffer is bounded: a frame larger than this drops
// the connection rather than ballooning server memory.
constexpr size_t kMaxFrameBytes = 16 * 1024 * 1024;

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Blocking-style full write on a non-blocking socket: polls for
/// writability between partial sends. Only one worker writes a given
/// connection at a time (one-in-flight ordering), so no interleaving.
void WriteAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      struct pollfd pfd = {fd, POLLOUT, 0};
      if (poll(&pfd, 1, 1000) <= 0) return;  // peer stalled or gone
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return;  // peer closed; response is moot
  }
}

std::string HttpWrap(std::string_view body) {
  std::string out = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n";
  out += "Content-Length: " + std::to_string(body.size() + 1) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  out += '\n';
  return out;
}

/// Case-insensitive Content-Length extraction; -1 when absent.
long ContentLength(std::string_view headers) {
  size_t pos = 0;
  while (pos < headers.size()) {
    size_t eol = headers.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = headers.size();
    std::string_view line = headers.substr(pos, eol - pos);
    size_t colon = line.find(':');
    if (colon != std::string_view::npos) {
      std::string key(line.substr(0, colon));
      for (char& c : key) c = static_cast<char>(std::tolower(
          static_cast<unsigned char>(c)));
      if (key == "content-length") {
        return std::strtol(line.data() + colon + 1, nullptr, 10);
      }
    }
    pos = eol + 2;
  }
  return -1;
}

}  // namespace

struct Server::Conn {
  explicit Conn(int f) : fd(f) {}
  ~Conn() { ::close(fd); }

  const int fd;
  /// Serializes the pending queue and the in-flight flag between the IO
  /// thread and workers.
  Mutex mu{kRankServerSession};
  std::deque<std::pair<std::string, bool>> pending CORAL_GUARDED_BY(mu);
  bool inflight CORAL_GUARDED_BY(mu) = false;

  // IO thread only.
  std::string inbuf;
  bool http = false;
  bool detected = false;

  /// Created lazily by the first worker to execute a request; accessed
  /// only by workers, serialized by the one-in-flight invariant.
  std::unique_ptr<ClientSession> session;
  std::atomic<bool> dead{false};
};

Server::Server(Database* db, ServerOptions opts)
    : db_(db), opts_(std::move(opts)) {
  ctx_.db = db_;
  ctx_.metrics = &metrics_;
  ctx_.default_deadline_ms = opts_.default_deadline_ms;
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(opts_.port));
  if (inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address " + opts_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    return Status::Internal(std::string("bind: ") + std::strerror(errno));
  }
  if (listen(listen_fd_, 64) != 0) {
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (!SetNonBlocking(listen_fd_) || pipe(wake_pipe_) != 0 ||
      !SetNonBlocking(wake_pipe_[0])) {
    return Status::Internal("server fd setup failed");
  }
  admission_ =
      std::make_unique<AdmissionQueue>(opts_.max_inflight, opts_.max_queue);
  io_thread_ = std::thread([this] { IoLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (!stopping_.exchange(true)) {
    if (wake_pipe_[1] >= 0) {
      char b = 'q';
      (void)!write(wake_pipe_[1], &b, 1);
    }
    if (io_thread_.joinable()) io_thread_.join();
    // Workers drain after the IO thread stops framing new requests; the
    // connections they still reference stay alive through shared_ptrs.
    if (admission_ != nullptr) admission_->Shutdown();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
    if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
    listen_fd_ = wake_pipe_[0] = wake_pipe_[1] = -1;
    MutexLock lock(&state_mu_);
    stopped_ = true;
    stopped_cv_.NotifyAll();
  } else {
    // Another thread is stopping; wait for it.
    Wait();
  }
}

void Server::Wait() {
  MutexLock lock(&state_mu_);
  while (!stopped_) stopped_cv_.Wait(state_mu_);
}

void Server::IoLoop() {
  std::vector<struct pollfd> fds;
  while (!stopping_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    for (const auto& [fd, conn] : conns_) {
      fds.push_back({fd, POLLIN, 0});
    }
    int rc = poll(fds.data(), fds.size(), 500);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    // Accept new connections.
    if (fds[0].revents & POLLIN) {
      while (true) {
        int cfd = accept(listen_fd_, nullptr, nullptr);
        if (cfd < 0) break;
        SetNonBlocking(cfd);
        int one = 1;
        setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        conns_.emplace(cfd, std::make_shared<Conn>(cfd));
      }
    }
    if (fds[1].revents & POLLIN) {
      char buf[16];
      (void)!read(wake_pipe_[0], buf, sizeof(buf));
    }
    for (size_t i = 2; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      auto it = conns_.find(fds[i].fd);
      if (it == conns_.end()) continue;
      HandleReadable(it->second);
    }
    // Reap connections marked dead by workers (HTTP one-shots, closes).
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->second->dead.load(std::memory_order_acquire)) {
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  conns_.clear();
}

void Server::HandleReadable(const std::shared_ptr<Conn>& conn) {
  char buf[16384];
  while (true) {
    ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      if (conn->inbuf.size() > kMaxFrameBytes) {
        conn->dead.store(true, std::memory_order_release);
        return;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF or error: frame what we have, then drop after workers finish.
    conn->dead.store(true, std::memory_order_release);
    break;
  }
  FrameRequests(conn);
}

void Server::FrameRequests(const std::shared_ptr<Conn>& conn) {
  if (!conn->detected && !conn->inbuf.empty()) {
    conn->http = conn->inbuf.rfind("GET ", 0) == 0 ||
                 conn->inbuf.rfind("POST ", 0) == 0 ||
                 conn->inbuf.rfind("HEAD ", 0) == 0;
    conn->detected = true;
  }
  bool framed = false;
  if (conn->http) {
    size_t hdr_end = conn->inbuf.find("\r\n\r\n");
    if (hdr_end == std::string::npos) return;
    long body_len = ContentLength(
        std::string_view(conn->inbuf).substr(0, hdr_end));
    if (body_len < 0) body_len = 0;
    size_t total = hdr_end + 4 + static_cast<size_t>(body_len);
    if (conn->inbuf.size() < total) return;  // body still arriving
    std::string_view start_line(conn->inbuf);
    start_line = start_line.substr(0, conn->inbuf.find("\r\n"));
    std::string body = conn->inbuf.substr(hdr_end + 4,
                                          static_cast<size_t>(body_len));
    std::string request;
    if (start_line.rfind("GET /stats", 0) == 0) {
      request = JsonWriter().Field("op", "stats").Build();
    } else if (start_line.rfind("GET /ping", 0) == 0) {
      request = JsonWriter().Field("op", "ping").Build();
    } else if (start_line.rfind("POST /consult", 0) == 0) {
      request =
          JsonWriter().Field("op", "consult").Field("program", body).Build();
    } else if (start_line.rfind("POST ", 0) == 0) {
      request = std::move(body);  // POST / and POST /query: JSON op body
    } else {
      request = JsonWriter().Field("op", "__unsupported_path__").Build();
    }
    conn->inbuf.clear();  // one-shot: ignore any pipelined extra bytes
    {
      MutexLock lock(&conn->mu);
      conn->pending.emplace_back(std::move(request), /*http=*/true);
    }
    framed = true;
  } else {
    size_t start = 0;
    while (true) {
      size_t nl = conn->inbuf.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = conn->inbuf.substr(start, nl - start);
      start = nl + 1;
      while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
        line.pop_back();
      }
      if (line.empty()) continue;
      MutexLock lock(&conn->mu);
      conn->pending.emplace_back(std::move(line), /*http=*/false);
      framed = true;
    }
    if (start > 0) conn->inbuf.erase(0, start);
  }
  if (framed) PumpConn(conn);
}

void Server::PumpConn(std::shared_ptr<Conn> conn) {
  while (true) {
    std::string request;
    bool http = false;
    {
      MutexLock lock(&conn->mu);
      if (conn->inflight || conn->pending.empty()) return;
      request = std::move(conn->pending.front().first);
      http = conn->pending.front().second;
      conn->pending.pop_front();
      conn->inflight = true;
    }
    Status admitted = admission_->Submit(
        [this, conn, request = std::move(request), http]() mutable {
          Execute(std::move(conn), std::move(request), http);
        });
    if (admitted.ok()) return;
    // Shed: answer inline (cheap) and try the next pending request.
    metrics_.RecordShed();
    std::string response = ShedResponse();
    WriteAll(conn->fd, http ? HttpWrap(response) : response + "\n");
    if (http) conn->dead.store(true, std::memory_order_release);
    MutexLock lock(&conn->mu);
    conn->inflight = false;
  }
}

void Server::Execute(std::shared_ptr<Conn> conn, std::string request,
                     bool http) {
  if (conn->session == nullptr) {
    conn->session = std::make_unique<ClientSession>(&ctx_);
  }
  std::string response = conn->session->Handle(request);
  WriteAll(conn->fd, http ? HttpWrap(response) : response + "\n");
  if (http || conn->session->closed()) {
    shutdown(conn->fd, SHUT_RDWR);
    conn->dead.store(true, std::memory_order_release);
  }
  {
    MutexLock lock(&conn->mu);
    conn->inflight = false;
  }
  PumpConn(std::move(conn));
}

}  // namespace coral::server
