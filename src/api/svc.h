// svc.h -- the umbrella header of the embeddable API. This is the one
// include an embedder (and every example and bench in this repo) needs
// for driver/runtime access:
//
//   - the facade: svc::Engine (+Builder), ModuleHandle, Deployment,
//     Result<T> -- see api/engine.h for the 10-line
//     compile -> deploy -> profile -> recompile loop
//   - the serving layer: svc::Server + serve() (serve/server.h),
//     concurrent request serving over a Deployment with per-core
//     queueing, admission control and latency/throughput stats; and
//     svc::Cluster + serve_cluster() (serve/cluster.h), the sharded
//     multi-Deployment front-end with load-aware routing, rolling
//     restarts and cross-shard profile merging
//   - the subsystems the facade is built from, re-exported for advanced
//     embedders: the offline/online drivers, the Soc runtime and its
//     shared CodeCache, the annotation-driven mapper, the iterative
//     (profile-guided) tuner, dataflow scheduling, and the deployment
//     image (de)serializer
//
// The entry points predating the facade have been removed; the migration
// table in docs/EMBEDDING.md maps each one to its replacement.
#pragma once

// The facade.
#include "api/deployment.h"
#include "api/engine.h"
#include "api/module_handle.h"
#include "support/result.h"

// The serving layer (svc::Server, ServerOptions, ServerStats, serve()),
// plus its sharded front-end (svc::Cluster, ClusterOptions, ClusterStats,
// serve_cluster()).
#include "serve/cluster.h"
#include "serve/server.h"

// Re-exported subsystems (the facade's vocabulary types live here:
// OfflineOptions, JitOptions, CoreSpec, SimResult, TuneConfig, ...).
#include "bytecode/serializer.h"
#include "driver/kernels.h"
#include "driver/offline_compiler.h"
#include "driver/online_compiler.h"
#include "ir/ir_pipeline.h"
#include "jit/jit_pipeline.h"
#include "runtime/code_cache.h"
#include "runtime/dataflow.h"
#include "runtime/iterative.h"
#include "runtime/mapper.h"
#include "runtime/profile_guided.h"
#include "runtime/soc.h"
