// lcn_serve: the design-as-a-service daemon (DESIGN.md §S22).
//
//   lcn_serve [--addr unix:/path | tcp:host:port] [--jobs N]
//
// Listens for newline-delimited JSON requests (see README "Serving"),
// executes design / evaluate / sweep jobs through the fair-share scheduler,
// and streams sa_iter progress to clients that ask for it. SIGTERM/SIGINT
// drain: the accept loop stops, every accepted job runs to completion and
// delivers its result, then the process exits 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/trace.hpp"
#include "service/server.hpp"

namespace {

lcn::service::Server* g_server = nullptr;

void on_signal(int /*sig*/) {
  // Async-signal-safe: just flip the server's atomic; run() polls it.
  if (g_server != nullptr) g_server->request_shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  // Ring-overflow data loss in a recorded trace must not be silent; every
  // exit path gets the one-line warning.
  std::atexit(lcn::trace::warn_if_dropped);
  lcn::service::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--addr" && i + 1 < argc) {
      options.address = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      options.max_running = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else {
      std::printf(
          "usage: %s [--addr unix:/path|tcp:host:port] [--jobs N]\n"
          "address default: LCN_SERVE_ADDR, then tcp:127.0.0.1:7733\n",
          argv[0]);
      return arg == "--help" ? 0 : 2;
    }
  }

  try {
    lcn::trace::check_env();
    lcn::service::Server server(options);
    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    // Announce the resolved address on stdout so wrappers (CI smoke, the
    // python client) can pick up an ephemeral tcp port.
    std::printf("listening %s\n", server.address().c_str());
    std::fflush(stdout);
    server.run();
    g_server = nullptr;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lcn_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
