// Copyright (c) 1993-style CORAL reproduction authors.
// Public surface of the CORAL query server (docs/SERVER.md):
//
//   #include <coral/server.h>
//
//   coral::Database db;
//   coral::server::ServerOptions opts;
//   opts.port = 4210;
//   coral::server::Server srv(&db, opts);
//   CORAL_CHECK_OK(srv.Start());
//   srv.Wait();
//
// Re-exports:
//
//   coral::server::Server         — TCP listener + worker pool
//   coral::server::ServerOptions  — port, admission knobs, deadline
//   coral::server::ClientSession  — per-connection protocol dispatch
//   coral::server::AdmissionQueue — bounded queue with shed-on-overload
//   coral::obs::ServerMetrics     — request counters and latency
//   coral::server::JsonValue, ParseJson, JsonWriter
//                                 — the JSON codec (src/util/json.h)
//
// The embedding rules of <coral/coral.h> apply: everything under src/
// reached past these headers is internal.

#ifndef CORAL_INCLUDE_CORAL_SERVER_H_
#define CORAL_INCLUDE_CORAL_SERVER_H_

#include "src/obs/server_metrics.h"
#include "src/server/admission.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/util/json.h"

namespace coral::server {
using ::coral::JsonValue;
using ::coral::JsonWriter;
using ::coral::ParseJson;
}  // namespace coral::server

#endif  // CORAL_INCLUDE_CORAL_SERVER_H_
