#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace hcs::serve {

namespace {

/// Untrusted peers must not grow the line buffer without bound.
constexpr std::size_t kMaxLineBytes = 1 << 20;

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      service_(std::make_unique<Service>(config_.service)) {}

Server::~Server() {
  stop();
  if (shutdown_thread_.joinable()) shutdown_thread_.join();
}

bool Server::start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = "socket: " + std::string(strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    if (error != nullptr) {
      *error = "invalid bind address \"" + config_.bind_address + "\"";
    }
    close_listener();
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (error != nullptr) *error = "bind: " + std::string(strerror(errno));
    close_listener();
    return false;
  }
  if (::listen(listen_fd_, 64) < 0) {
    if (error != nullptr) *error = "listen: " + std::string(strerror(errno));
    close_listener();
    return false;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }

  acceptor_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      break;  // listener closed or fatal
    }
    std::lock_guard<std::mutex> lock(conn_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    open_fds_.push_back(fd);
    conn_threads_.emplace_back(&Server::serve_connection, this, fd);
  }
}

void Server::serve_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool shutdown_requested = false;

  while (!shutdown_requested) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));

    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos && !shutdown_requested;
         nl = buffer.find('\n', start)) {
      std::string_view line(buffer.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      const Service::Reply reply = service_->handle(line);
      if (!send_all(fd, reply.line)) {
        shutdown_requested = reply.shutdown;
        start = buffer.size();
        break;
      }
      if (reply.shutdown) shutdown_requested = true;
      start = nl + 1;
    }
    buffer.erase(0, start);

    if (buffer.size() > kMaxLineBytes) {
      (void)send_all(fd, error_reply(0, "request line too long"));
      break;
    }
  }

  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    open_fds_.erase(std::remove(open_fds_.begin(), open_fds_.end(), fd),
                    open_fds_.end());
    if (shutdown_requested && !shutdown_thread_.joinable()) {
      shutdown_thread_ = std::thread([this] { stop(); });
    }
  }
  ::close(fd);
}

void Server::close_listener() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    wait();  // another caller is stopping; block until it finishes
    return;
  }

  // Shutting the listener down unblocks accept(); the acceptor still reads
  // listen_fd_, so the fd is closed and reset only once it has joined.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  close_listener();

  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) t.join();

  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    done_ = true;
  }
  done_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(done_mutex_);
  done_cv_.wait(lock, [this] { return done_; });
}

}  // namespace hcs::serve
