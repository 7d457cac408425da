// Loopback client plumbing shared by the two serving workloads, and the
// self-test verdict helpers.
#include <poll.h>

#include <cmath>
#include <ctime>
#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {

std::vector<std::unique_ptr<pit::net::BlockingClient>> connect_clients(
    std::uint16_t port, int count, std::vector<double>* connect_ms) {
  std::vector<std::unique_ptr<pit::net::BlockingClient>> clients;
  for (int i = 0; i < count; ++i) {
    auto client = std::make_unique<pit::net::BlockingClient>();
    const double t0 = now_s();
    if (!client->connect("127.0.0.1", port)) {
      throw std::runtime_error("connect/HELLO failed: " +
                               client->last_error().message);
    }
    if (connect_ms != nullptr) {
      connect_ms->push_back((now_s() - t0) * 1e3);
    }
    clients.push_back(std::move(client));
  }
  return clients;
}

void wait_readable(
    const std::vector<std::unique_ptr<pit::net::BlockingClient>>& clients,
    double timeout_s) {
  pollfd fds[16];
  const std::size_t n = std::min<std::size_t>(clients.size(), 16);
  for (std::size_t i = 0; i < n; ++i) {
    fds[i].fd = clients[i]->conn().fd();
    fds[i].events = POLLIN;
    fds[i].revents = 0;
  }
  timeout_s = std::max(0.0, timeout_s);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_s);
  ts.tv_nsec = static_cast<long>(
      (timeout_s - static_cast<double>(ts.tv_sec)) * 1e9);
  (void)::ppoll(fds, n, &ts, nullptr);
}

bool expect_accepted(std::vector<std::string>& log, const std::string& what,
                     const RunResult& res) {
  if (res.correct) {
    log.push_back("ok   " + what + ": accepted");
    return true;
  }
  log.push_back("FAIL " + what + ": rejected: " +
                (res.check_failures.empty() ? "" : res.check_failures[0]));
  return false;
}

bool expect_rejected(std::vector<std::string>& log, const std::string& what,
                     const RunResult& res, const char* check) {
  for (const std::string& msg : res.check_failures) {
    if (msg.rfind(check, 0) == 0) {
      log.push_back("ok   " + what + ": rejected: " + msg);
      return true;
    }
  }
  log.push_back("FAIL " + what + ": not rejected by " + check);
  return false;
}

}  // namespace perfbench
