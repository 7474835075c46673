// Copyright (c) 1993-style CORAL reproduction authors.
// Umbrella header for embedding CORAL in C++ programs (paper §6).
//
// This is the only header an embedding application needs:
//
//   #include <coral/coral.h>
//
//   coral::Coral c;                       // or coral::Database db;
//   auto out = c.Command("?- path(1, X).");
//
// It re-exports the public surface:
//
//   coral::Database          — relations, modules, queries (EvalQuery,
//                              ExecuteQuery, Run, Consult), profiling
//   coral::Session           — per-client query handle: snapshot
//                              isolation, deadlines, $name bindings
//                              (the concurrent-access entry point;
//                              see docs/API.md thread-safety table)
//   coral::Coral             — the embedded-C++ facade over a Database;
//                              Coral::RegisterPredicate defines a
//                              predicate by a C++ function
//                              (coral::ComputedPredicateFn), registered
//                              as a builtin like append/3
//   coral::Relation          — stored base relations
//   coral::QueryResult       — bindings produced by a query
//   coral::C_ScanDesc        — get-next-tuple cursors over answers
//   coral::StorageManager    — persistent relations (EXODUS substitute)
//   coral::Status/StatusOr   — error handling (see docs/API.md)
//   coral::obs::*            — evaluation statistics and trace events
//                              (StatsRegistry, ModuleProfile, TraceEvent,
//                              TraceSink, report rendering)
//
// Everything under src/ is internal; applications that reach past this
// header get no stability guarantees (CI builds the embedded example
// against include/ alone to keep the boundary honest).

#ifndef CORAL_INCLUDE_CORAL_CORAL_H_
#define CORAL_INCLUDE_CORAL_CORAL_H_

#include "src/core/database.h"
#include "src/core/session.h"
#include "src/cxx/coral.h"
#include "src/cxx/scan_desc.h"
#include "src/obs/report.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"
#include "src/rel/relation.h"
#include "src/storage/storage_manager.h"
#include "src/util/status.h"

#endif  // CORAL_INCLUDE_CORAL_CORAL_H_
