#include "rcb/sim/engine_workspace.hpp"

namespace rcb {

void EngineWorkspace::begin_trial() {
  arena.reset();
  detach_buffers();
}

void EngineWorkspace::detach_buffers() {
  events.detach();
  mc_history.detach();
  payloads.detach();
}

EngineWorkspace& engine_workspace() {
  thread_local EngineWorkspace workspace;
  return workspace;
}

void engine_workspace_begin_trial() { engine_workspace().begin_trial(); }

}  // namespace rcb
