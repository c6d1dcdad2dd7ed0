#pragma once

// The main() egid and egid_router share: flags with environment twins, the
// --help scan, and the start / ready banner / signal-driven drain tail
// around a ServiceHandler. Each main keeps its own options and usage text.

#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "service/server.h"
#include "util/env.h"

namespace egi::service {

/// --name=value (or --name value) flags over argv. An absent flag reads its
/// environment twin: `env_prefix` plus the name upper-cased, '-' as '_'
/// (egid's --http-port falls back to EGID_HTTP_PORT).
struct DaemonFlags {
  const char* program;
  const char* env_prefix;
  int argc;
  char** argv;

  bool help() const {
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
        return true;
      }
    }
    return false;
  }
  const char* Find(const char* name) const {
    const size_t len = std::strlen(name);
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) continue;
      if (std::strncmp(arg + 2, name, len) != 0) continue;
      if (arg[2 + len] == '=') return arg + 2 + len + 1;
      if (arg[2 + len] == '\0' && i + 1 < argc) return argv[i + 1];
    }
    return nullptr;
  }
  std::string Env(const char* name) const {
    std::string env = env_prefix;
    for (const char* c = name; *c != '\0'; ++c) {
      env += *c == '-' ? '_' : static_cast<char>(std::toupper(*c));
    }
    return env;
  }
  int64_t Int(const char* name, int64_t fallback) const {
    if (const char* v = Find(name); v != nullptr) return std::atoll(v);
    return GetEnvInt(Env(name).c_str(), fallback);
  }
  double Double(const char* name, double fallback) const {
    if (const char* v = Find(name); v != nullptr) return std::atof(v);
    return GetEnvDouble(Env(name).c_str(), fallback);
  }
  std::string Str(const char* name, const std::string& fallback) const {
    if (const char* v = Find(name); v != nullptr) return v;
    return GetEnvString(Env(name).c_str(), fallback);
  }
  /// "<program>: <message>" on stderr; returns exit code 1.
  int Fail(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", program, message.c_str());
    return 1;
  }
};

inline Server* g_daemon_server = nullptr;

/// Serves `handler` on --bind, --http-port and --ingest-port, prints
/// "<banner> ready http=<port> ingest=<port> <detail>", and on SIGTERM or
/// SIGINT drains; returns the exit code.
inline int RunDaemon(const DaemonFlags& flags, ServiceHandler* handler,
                     const char* banner, const std::string& detail,
                     ServerOptions options = {}) {
  options.bind_address = flags.Str("bind", "127.0.0.1");
  options.http_port = static_cast<int>(flags.Int("http-port", 0));
  options.ingest_port = static_cast<int>(flags.Int("ingest-port", 0));
  Server server(handler, std::move(options));
  const Status started = server.Start();
  if (!started.ok()) return flags.Fail(started.ToString());

  g_daemon_server = &server;
  const auto stop = [](int) { g_daemon_server->RequestStop(); };
  std::signal(SIGTERM, stop);  // RequestStop is one atomic store
  std::signal(SIGINT, stop);
  std::signal(SIGPIPE, SIG_IGN);  // peer resets surface as write errors
  std::printf("%s ready http=%d ingest=%d %s\n", banner, server.http_port(),
              server.ingest_port(), detail.c_str());
  std::fflush(stdout);

  const Status drained = server.Wait();
  g_daemon_server = nullptr;
  if (!drained.ok()) {
    return flags.Fail("final checkpoint failed: " + drained.ToString());
  }
  std::fprintf(stderr, "%s: drained cleanly\n", flags.program);
  return 0;
}

}  // namespace egi::service
