#ifndef TREEQ_ENGINE_ENGINE_H_
#define TREEQ_ENGINE_ENGINE_H_

/// \file engine.h
/// Umbrella header for the treeq serving engine. One include gives the
/// whole concurrent batch-serving surface:
///
///   DocumentStore store;                       // named immutable corpus
///   auto doc = store.Add("catalog", std::move(tree)).value();
///   PlanCache cache(/*capacity=*/128);         // (language, text) -> Plan
///   auto plan = cache.GetOrCompile(Language::kXPath, "//product").value();
///   Executor exec({.num_workers = 8});
///   auto submission = exec.Submit({plan, doc, {}});  // the one front door
///   QueryResult r = submission.future.get().value();
///
/// See DESIGN.md ("The serving engine") for the thread-safety contract and
/// plan-cache semantics.

#include "engine/document_store.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "engine/plan_cache.h"

#endif  // TREEQ_ENGINE_ENGINE_H_
