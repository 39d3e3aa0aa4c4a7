#include "api/deployment.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "runtime/mapper.h"

namespace svc {

Deployment& Deployment::operator=(Deployment&& other) noexcept {
  if (this != &other) {
    // The overwritten deployment's Soc is about to die: its in-flight
    // warm-up jobs must finish first, exactly as in the destructor.
    wait_pending_warmups();
    soc_ = std::move(other.soc_);
    module_ = std::move(other.module_);
    warmups_ = std::move(other.warmups_);
  }
  return *this;
}

Deployment::~Deployment() { wait_pending_warmups(); }

void Deployment::wait_pending_warmups() {
  if (!warmups_) return;  // moved-from husk
  std::vector<std::shared_future<void>> jobs;
  {
    std::lock_guard<std::mutex> lock(warmups_->mu);
    jobs.swap(warmups_->jobs);
  }
  for (const auto& job : jobs) job.wait();
}

Result<SimResult> Deployment::run(std::string_view name,
                                  const std::vector<Value>& args) {
  const auto idx = module_->find_function(name);
  if (!idx) {
    return Result<SimResult>::failure("Deployment::run: no function '" +
                                      std::string(name) + "' in module '" +
                                      module_.name() + "'");
  }
  const size_t best = choose_core(*soc_, module_->function(*idx));
  return soc_->run_on(best, name, args);
}

Result<SimResult> Deployment::run_on(size_t core, std::string_view name,
                                     const std::vector<Value>& args,
                                     uint64_t step_budget) {
  if (core >= soc_->num_cores()) {
    return Result<SimResult>::failure(
        "Deployment::run_on: core " + std::to_string(core) +
        " out of range (deployment has " +
        std::to_string(soc_->num_cores()) + ")");
  }
  if (!module_->find_function(name)) {
    return Result<SimResult>::failure("Deployment::run_on: no function '" +
                                      std::string(name) + "' in module '" +
                                      module_.name() + "'");
  }
  return soc_->run_on(core, name, args, step_budget);
}

std::future<void> Deployment::warm_up() {
  // The async job captures the Soc and the module by shared ownership /
  // raw pointer into soc_ -- both stable across moves of the Deployment
  // (the Soc object itself never moves). The job itself is retained in
  // warmups_ so ~Deployment can wait it out; the caller gets a deferred
  // forwarder onto it, which stays waitable even past the Deployment's
  // lifetime (the job is complete by then).
  Soc* soc = soc_.get();
  std::shared_ptr<const Module> module = module_.shared();
  std::shared_future<void> job =
      std::async(std::launch::async, [soc, module] {
        const auto n = static_cast<uint32_t>(module->num_functions());
        for (size_t c = 0; c < soc->num_cores(); ++c) {
          for (uint32_t f = 0; f < n; ++f) soc->core(c).request_compile(f);
        }
        soc->wait_warmup();
      }).share();
  {
    std::lock_guard<std::mutex> lock(warmups_->mu);
    // Prune finished jobs so repeated warm-ups over a long-lived
    // deployment keep the list bounded by what is actually in flight.
    std::erase_if(warmups_->jobs, [](const std::shared_future<void>& j) {
      return j.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    });
    warmups_->jobs.push_back(job);
  }
  return std::async(std::launch::deferred,
                    [job = std::move(job)] { job.wait(); });
}

void Deployment::wait_warmup() { soc_->wait_warmup(); }

TierCounters Deployment::tier_counters() const {
  TierCounters sum;
  for (size_t c = 0; c < soc_->num_cores(); ++c) {
    const TierCounters core = soc_->core(c).tier_counters();
    sum.interpreted += core.interpreted;
    sum.jitted += core.jitted;
    sum.tier2 += core.tier2;
    sum.tier2_functions += core.tier2_functions;
  }
  return sum;
}

Result<TierCounters> Deployment::tier_counters_on(size_t core) const {
  if (core >= soc_->num_cores()) {
    return Result<TierCounters>::failure(
        "Deployment::tier_counters_on: core " + std::to_string(core) +
        " out of range (deployment has " + std::to_string(soc_->num_cores()) +
        ")");
  }
  return soc_->core(core).tier_counters();
}

Statistics Deployment::cache_stats() const { return soc_->code_cache().stats(); }

size_t Deployment::num_cores() const { return soc_->num_cores(); }

Memory& Deployment::memory() { return soc_->memory(); }

ModuleHandle Deployment::export_profile() const {
  return ModuleHandle::adopt(soc_->export_profiled_module());
}

}  // namespace svc
