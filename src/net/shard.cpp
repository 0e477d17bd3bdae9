#include "net/shard.hpp"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"

namespace earsonar::net {

using Clock = std::chrono::steady_clock;

std::uint64_t HashRing::mix(std::uint64_t x) {
  // splitmix64 finalizer (Steele et al.): full-avalanche mixing so nearby
  // session ids land far apart on the ring.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

HashRing::Point HashRing::make_point(std::size_t shard, std::size_t replica) {
  // Point identity is (shard, replica), independent of the membership set —
  // that is what makes resizing minimal-remap: growing to N+1 shards only
  // *inserts* the new shard's points, every surviving point keeps its
  // position. The salt keeps the point domain disjoint from the key domain:
  // without it, shard 0's replica ids 0..63 hash to the same ring positions
  // as session ids 0..63, and every small session id lands exactly on (hence
  // just below) a shard-0 point.
  constexpr std::uint64_t kPointSalt = 0x72696e67706f696eULL;  // "ringpoin"
  const std::uint64_t id = (static_cast<std::uint64_t>(shard) << 32) | replica;
  return {mix(id ^ kPointSalt), static_cast<std::uint32_t>(shard)};
}

HashRing::HashRing(std::size_t shards, std::size_t replicas)
    : members_(shards), replicas_(replicas) {
  require(shards >= 1, "HashRing: shards must be >= 1");
  require(replicas >= 1, "HashRing: replicas must be >= 1");
  points_.reserve(shards * replicas);
  for (std::size_t s = 0; s < shards; ++s)
    for (std::size_t r = 0; r < replicas; ++r) points_.push_back(make_point(s, r));
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
            });
}

std::size_t HashRing::shard_for(std::uint64_t session_id) const {
  require(!points_.empty(), "HashRing: ring is empty");
  const std::uint64_t h = mix(session_id);
  // First point at or after h; wrap to the lowest point past the top.
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Point& p, std::uint64_t key) { return p.hash < key; });
  return it != points_.end() ? it->shard : points_.front().shard;
}

bool HashRing::contains(std::size_t shard) const {
  return std::any_of(points_.begin(), points_.end(), [shard](const Point& p) {
    return p.shard == static_cast<std::uint32_t>(shard);
  });
}

void HashRing::add_shard(std::size_t shard) {
  if (contains(shard)) return;
  for (std::size_t r = 0; r < replicas_; ++r) {
    const Point point = make_point(shard, r);
    const auto at = std::lower_bound(
        points_.begin(), points_.end(), point,
        [](const Point& a, const Point& b) {
          return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
        });
    points_.insert(at, point);
  }
  ++members_;
}

void HashRing::remove_shard(std::size_t shard) {
  if (!contains(shard)) return;
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [shard](const Point& p) {
                                 return p.shard ==
                                        static_cast<std::uint32_t>(shard);
                               }),
                points_.end());
  --members_;
}

const char* to_string(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy: return "healthy";
    case ShardHealth::kDraining: return "draining";
    case ShardHealth::kDown: return "down";
    case ShardHealth::kRestarting: return "restarting";
    case ShardHealth::kRetired: return "retired";
  }
  return "unknown";
}

void ShardConfig::validate() const {
  require(shards >= 1, "ShardConfig: shards must be >= 1");
  require(replicas >= 1, "ShardConfig: replicas must be >= 1");
  require(max_sessions_per_shard >= 1,
          "ShardConfig: max_sessions_per_shard must be >= 1");
  require(supervisor_interval_ms >= 1,
          "ShardConfig: supervisor_interval_ms must be >= 1");
  require(drain_deadline_ms >= 0.0, "ShardConfig: drain_deadline_ms must be >= 0");
  require(wedge_timeout_ms >= 0.0, "ShardConfig: wedge_timeout_ms must be >= 0");
  require(max_shards >= shards, "ShardConfig: max_shards must be >= shards");
  engine.validate();
}

ShardPool::ShardPool(ShardConfig config)
    : config_(std::move(config)), ring_(config_.shards, config_.replicas) {
  config_.validate();
  // N engines leasing the shared pool would serialize behind its batch
  // mutex; shard engines always own their threads. Stored back into config_
  // so engine_config() and restart-built engines agree.
  config_.engine.dedicated_threads = true;
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->engine = make_engine();
    shards_.push_back(std::move(shard));
  }
}

ShardPool::~ShardPool() { stop(); }

std::shared_ptr<serve::ServingEngine> ShardPool::make_engine() const {
  return std::make_shared<serve::ServingEngine>(config_.engine);
}

void ShardPool::start() {
  if (running_.exchange(true)) return;
  {
    std::shared_lock<std::shared_mutex> lock(membership_mutex_);
    for (auto& shard : shards_) shard->engine->start();
  }
  supervisor_ = std::thread([this] { supervisor_loop(); });
}

void ShardPool::stop() {
  if (!running_.exchange(false)) return;
  if (supervisor_.joinable()) supervisor_.join();
  // After the supervisor: nobody swaps engines anymore, snapshots are stable.
  std::vector<std::shared_ptr<serve::ServingEngine>> engines;
  {
    std::shared_lock<std::shared_mutex> lock(membership_mutex_);
    engines.reserve(shards_.size());
    for (auto& shard : shards_) engines.push_back(shard->engine);
  }
  for (auto& engine : engines) engine->stop();
}

std::size_t ShardPool::shard_count() const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  return shards_.size();
}

std::size_t ShardPool::ring_members() const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  return ring_.shard_count();
}

std::size_t ShardPool::shard_for(std::uint64_t session_id) const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  return ring_.shard_for(session_id);
}

std::shared_ptr<serve::ServingEngine> ShardPool::engine(std::size_t shard) const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  return shards_[shard]->engine;
}

Admission ShardPool::admit_session(std::uint64_t session_id,
                                   std::size_t* shard_out,
                                   std::uint64_t* epoch_out) {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  const std::size_t shard_index = ring_.shard_for(session_id);
  if (shard_out != nullptr) *shard_out = shard_index;
  Shard& shard = *shards_[shard_index];
  if (fault::point("net.shard.dispatch")) {
    shard.sessions_rejected.fetch_add(1, std::memory_order_relaxed);
    return Admission::kDispatchFault;
  }
  if (!running_.load()) {
    shard.sessions_rejected.fetch_add(1, std::memory_order_relaxed);
    return Admission::kStopped;
  }
  switch (shard.health.load(std::memory_order_acquire)) {
    case ShardHealth::kHealthy:
      break;
    case ShardHealth::kDown:
    case ShardHealth::kRestarting:
      // A crashed shard keeps its ring points while it restarts: its keys
      // are refused *explicitly and retryably* instead of remapping away and
      // back again a restart later (which would double-move every session).
      shard.sessions_rejected.fetch_add(1, std::memory_order_relaxed);
      return Admission::kRestarting;
    case ShardHealth::kDraining:
    case ShardHealth::kRetired:
      // Out of the ring, so only an admission that raced the drain lands
      // here; the client retries and remaps.
      shard.sessions_rejected.fetch_add(1, std::memory_order_relaxed);
      return Admission::kDraining;
  }
  // Optimistic claim: bump, then back out if over the cap. Two racers can
  // both observe the bump but only the one(s) within the cap keep it.
  const std::int64_t now =
      shard.sessions_active.fetch_add(1, std::memory_order_relaxed) + 1;
  if (now > static_cast<std::int64_t>(config_.max_sessions_per_shard)) {
    shard.sessions_active.fetch_sub(1, std::memory_order_relaxed);
    shard.sessions_rejected.fetch_add(1, std::memory_order_relaxed);
    return Admission::kSessionsFull;
  }
  if (epoch_out != nullptr)
    *epoch_out = shard.epoch.load(std::memory_order_acquire);
  return Admission::kAdmitted;
}

void ShardPool::release_session(std::size_t shard) {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  shards_[shard]->sessions_active.fetch_sub(1, std::memory_order_relaxed);
}

bool ShardPool::session_current(std::size_t shard, std::uint64_t epoch) const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  const Shard& s = *shards_[shard];
  const ShardHealth health = s.health.load(std::memory_order_acquire);
  if (health != ShardHealth::kHealthy && health != ShardHealth::kDraining)
    return false;
  return s.epoch.load(std::memory_order_acquire) == epoch;
}

std::int64_t ShardPool::sessions_active(std::size_t shard) const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  return shards_[shard]->sessions_active.load(std::memory_order_relaxed);
}

ShardHealth ShardPool::shard_health(std::size_t shard) const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  return shards_[shard]->health.load(std::memory_order_acquire);
}

std::uint64_t ShardPool::shard_epoch(std::size_t shard) const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  return shards_[shard]->epoch.load(std::memory_order_acquire);
}

double ShardPool::last_recovery_ms(std::size_t shard) const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  return shards_[shard]->last_recovery_ms.load(std::memory_order_relaxed);
}

// --------------------------------------------------------------- lifecycle

bool ShardPool::add_shard(std::string* error) {
  const auto refuse = [error](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (fault::point("net.admin.resize"))
    return refuse("injected fault: net.admin.resize");
  if (!running_.load()) return refuse("pool is not running");
  // Build and start the engine outside the lock (thread spawns are slow);
  // admission never sees the slot until the exclusive section publishes it.
  auto fresh = make_engine();
  {
    std::unique_lock<std::shared_mutex> lock(membership_mutex_);
    if (shards_.size() >= config_.max_shards) {
      lock.unlock();
      fresh.reset();
      return refuse("max_shards reached");
    }
    if (model_ != nullptr) fresh->registry().install(*model_, model_source_);
  }
  fresh->start();
  std::size_t index = 0;
  {
    std::unique_lock<std::shared_mutex> lock(membership_mutex_);
    if (shards_.size() >= config_.max_shards) {
      lock.unlock();
      fresh->stop();
      return refuse("max_shards reached");
    }
    index = shards_.size();
    auto shard = std::make_unique<Shard>();
    shard->engine = std::move(fresh);
    shards_.push_back(std::move(shard));
    ring_.add_shard(index);
  }
  resizes_.fetch_add(1, std::memory_order_relaxed);
  log_info("net: shard ", index, " added (ring now ", ring_members(),
           " member(s))");
  return true;
}

bool ShardPool::begin_drain(std::size_t shard, std::string* error) {
  const auto refuse = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (fault::point("net.admin.resize"))
    return refuse("injected fault: net.admin.resize");
  std::unique_lock<std::shared_mutex> lock(membership_mutex_);
  if (shard >= shards_.size()) return refuse("no such shard slot");
  Shard& s = *shards_[shard];
  ShardHealth expected = ShardHealth::kHealthy;
  if (ring_.shard_count() <= 1) return refuse("cannot drain the last ring member");
  if (!s.health.compare_exchange_strong(expected, ShardHealth::kDraining,
                                        std::memory_order_acq_rel)) {
    std::ostringstream msg;
    msg << "shard " << shard << " is " << to_string(expected)
        << ", only a healthy shard can drain";
    return refuse(msg.str());
  }
  // Leave the ring immediately: no new Hellos, and the departing keys remap
  // to the survivors *once* (minimal remap) rather than at retire time.
  ring_.remove_shard(shard);
  s.in_ring.store(false, std::memory_order_release);
  lock.unlock();
  resizes_.fetch_add(1, std::memory_order_relaxed);
  log_info("net: shard ", shard, " draining");
  return true;
}

bool ShardPool::kill_shard(std::size_t shard, std::string* error) {
  const auto refuse = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  if (shard >= shards_.size()) return refuse("no such shard slot");
  Shard& s = *shards_[shard];
  ShardHealth expected = ShardHealth::kHealthy;
  if (!s.health.compare_exchange_strong(expected, ShardHealth::kDown,
                                        std::memory_order_acq_rel)) {
    std::ostringstream msg;
    msg << "shard " << shard << " is " << to_string(expected)
        << ", only a healthy shard can be killed";
    return refuse(msg.str());
  }
  // The epoch bump is what invalidates every in-flight session: their next
  // Chunk/Finish sees session_current() == false and gets Error{kShardRestart}.
  s.epoch.fetch_add(1, std::memory_order_acq_rel);
  log_warn("net: shard ", shard, " down (killed); supervisor will restart it");
  return true;
}

void ShardPool::install_model(const core::DetectorModel& model,
                              const std::string& source) {
  std::unique_lock<std::shared_mutex> lock(membership_mutex_);
  model_ = std::make_shared<const core::DetectorModel>(model);
  model_source_ = source;
  for (auto& shard : shards_)
    if (shard->health.load(std::memory_order_acquire) != ShardHealth::kRetired)
      shard->engine->registry().install(model, source);
}

// -------------------------------------------------------------- supervisor

void ShardPool::supervisor_loop() {
  while (running_.load()) {
    supervise_once(Clock::now());
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.supervisor_interval_ms));
  }
}

void ShardPool::supervise_once(Clock::time_point now) {
  // Shard objects live behind stable unique_ptrs; only the vector itself
  // needs the lock. The supervisor is the sole writer of the bookkeeping
  // fields and the sole engine swapper, so it reads them lock-free.
  std::vector<Shard*> slots;
  {
    std::shared_lock<std::shared_mutex> lock(membership_mutex_);
    slots.reserve(shards_.size());
    for (auto& shard : shards_) slots.push_back(shard.get());
  }
  for (std::size_t index = 0; index < slots.size(); ++index) {
    Shard& shard = *slots[index];
    switch (shard.health.load(std::memory_order_acquire)) {
      case ShardHealth::kHealthy: {
        // Heartbeat probe: a fired fault is an observed crash.
        if (fault::point("net.shard.health")) {
          shard.epoch.fetch_add(1, std::memory_order_acq_rel);
          shard.down_since = now;
          shard.health.store(ShardHealth::kDown, std::memory_order_release);
          log_warn("net: shard ", index, " failed its health probe; down");
          break;
        }
        // Wedge detection: queued work with no completion progress means the
        // workers are stuck (a hung model load, a deadlocked stage), which a
        // liveness probe alone would miss.
        const std::uint64_t completed =
            shard.engine->metrics().completed.load(std::memory_order_relaxed);
        const bool busy = shard.engine->queue_depth() > 0;
        if (completed != shard.last_completed || !busy ||
            shard.last_progress == Clock::time_point{}) {
          shard.last_completed = completed;
          shard.last_progress = now;
          break;
        }
        if (config_.wedge_timeout_ms > 0.0 &&
            std::chrono::duration<double, std::milli>(now - shard.last_progress)
                    .count() > config_.wedge_timeout_ms) {
          shard.epoch.fetch_add(1, std::memory_order_acq_rel);
          shard.down_since = now;
          shard.health.store(ShardHealth::kDown, std::memory_order_release);
          log_warn("net: shard ", index, " wedged (queue busy, no progress); down");
        }
        break;
      }
      case ShardHealth::kDown: {
        if (shard.down_since == Clock::time_point{}) shard.down_since = now;
        // A fired fault means this restart *attempt* failed (exec refused,
        // resources exhausted); the shard stays down and the next tick tries
        // again — restart is a loop, not a single shot.
        if (fault::point("net.shard.restart")) break;
        shard.health.store(ShardHealth::kRestarting, std::memory_order_release);
        restart_shard(index, now);
        break;
      }
      case ShardHealth::kDraining: {
        if (shard.drain_started == Clock::time_point{}) shard.drain_started = now;
        const bool idle =
            shard.sessions_active.load(std::memory_order_relaxed) <= 0;
        const bool overran =
            std::chrono::duration<double, std::milli>(now - shard.drain_started)
                .count() > config_.drain_deadline_ms;
        if (!idle && !overran) break;
        if (!idle) {
          // Past the drain deadline: stragglers are invalidated (their next
          // frame gets Error{kShardRestart}), never silently dropped.
          shard.epoch.fetch_add(1, std::memory_order_acq_rel);
          log_warn("net: shard ", index, " drain deadline overrun; cutting ",
                   shard.sessions_active.load(), " straggler session(s)");
        }
        retire_shard(index);
        break;
      }
      case ShardHealth::kRestarting:
      case ShardHealth::kRetired:
        break;
    }
  }
}

void ShardPool::restart_shard(std::size_t index, Clock::time_point now) {
  Shard& shard = *[&] {
    std::shared_lock<std::shared_mutex> lock(membership_mutex_);
    return shards_[index].get();
  }();
  // Tear down outside the lock: stop() drains the queue, so every accepted
  // future resolves (a connection thread blocked in Finish gets its answer —
  // crash isolation must not turn into a hang).
  std::shared_ptr<serve::ServingEngine> old = shard.engine;
  old->stop();
  auto fresh = make_engine();
  {
    std::shared_lock<std::shared_mutex> lock(membership_mutex_);
    if (model_ != nullptr) fresh->registry().install(*model_, model_source_);
  }
  fresh->start();
  {
    std::unique_lock<std::shared_mutex> lock(membership_mutex_);
    shard.engine = std::move(fresh);
  }
  shard.restarts.fetch_add(1, std::memory_order_relaxed);
  shard.last_completed = 0;
  shard.last_progress = Clock::now();
  const double recovery =
      std::chrono::duration<double, std::milli>(Clock::now() -
                                                (shard.down_since ==
                                                         Clock::time_point{}
                                                     ? now
                                                     : shard.down_since))
          .count();
  shard.last_recovery_ms.store(recovery, std::memory_order_relaxed);
  shard.down_since = Clock::time_point{};
  shard.health.store(ShardHealth::kHealthy, std::memory_order_release);
  log_info("net: shard ", index, " restarted in ", recovery, " ms");
}

void ShardPool::retire_shard(std::size_t index) {
  Shard* shard = nullptr;
  {
    std::unique_lock<std::shared_mutex> lock(membership_mutex_);
    shard = shards_[index].get();
    ring_.remove_shard(index);  // no-op when the drain already removed it
    shard->in_ring.store(false, std::memory_order_release);
    shard->health.store(ShardHealth::kRetired, std::memory_order_release);
  }
  // The stopped engine stays in place as a tombstone: stats() keeps reading
  // its final counters, and slot indices stay stable for open references.
  shard->engine->stop();
  log_info("net: shard ", index, " drained and retired");
}

// ------------------------------------------------------------------ stats

StatsPayload ShardPool::stats() const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  StatsPayload payload;
  payload.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const serve::ServeMetrics& m = shard->engine->metrics();
    ShardStatsWire wire;
    wire.accepted = m.accepted.load(std::memory_order_relaxed);
    wire.completed = m.completed.load(std::memory_order_relaxed);
    wire.rejected_queue_full = m.rejected_queue_full.load(std::memory_order_relaxed);
    wire.deadline_exceeded = m.deadline_exceeded.load(std::memory_order_relaxed);
    wire.degraded = m.degraded.load(std::memory_order_relaxed);
    wire.failed = m.failed.load(std::memory_order_relaxed);
    wire.chunks_fed = m.chunks_fed.load(std::memory_order_relaxed);
    const std::int64_t active = shard->sessions_active.load(std::memory_order_relaxed);
    wire.sessions_active = active > 0 ? static_cast<std::uint64_t>(active) : 0;
    wire.sessions_rejected = shard->sessions_rejected.load(std::memory_order_relaxed);
    wire.health = static_cast<std::uint64_t>(
        shard->health.load(std::memory_order_acquire));
    wire.epoch = shard->epoch.load(std::memory_order_acquire);
    wire.restarts = shard->restarts.load(std::memory_order_relaxed);
    payload.shards.push_back(wire);
  }
  return payload;
}

std::vector<ShardHealthWire> ShardPool::health_snapshot() const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  std::vector<ShardHealthWire> out;
  out.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    ShardHealthWire wire;
    wire.slot = static_cast<std::uint32_t>(s);
    wire.health = static_cast<std::uint8_t>(
        shard.health.load(std::memory_order_acquire));
    wire.in_ring = shard.in_ring.load(std::memory_order_acquire) ? 1 : 0;
    wire.epoch = shard.epoch.load(std::memory_order_acquire);
    wire.restarts = shard.restarts.load(std::memory_order_relaxed);
    out.push_back(wire);
  }
  return out;
}

std::string ShardPool::metrics_text() const {
  const std::vector<ShardHealthWire> snapshot = health_snapshot();
  std::ostringstream out;
  out << "# TYPE earsonar_net_shard_health gauge\n";
  for (const ShardHealthWire& s : snapshot)
    out << "earsonar_net_shard_health{shard=\"" << s.slot << "\"} "
        << static_cast<unsigned>(s.health) << "\n";
  out << "# TYPE earsonar_net_shard_in_ring gauge\n";
  for (const ShardHealthWire& s : snapshot)
    out << "earsonar_net_shard_in_ring{shard=\"" << s.slot << "\"} "
        << static_cast<unsigned>(s.in_ring) << "\n";
  out << "# TYPE earsonar_net_shard_epoch counter\n";
  for (const ShardHealthWire& s : snapshot)
    out << "earsonar_net_shard_epoch{shard=\"" << s.slot << "\"} " << s.epoch
        << "\n";
  out << "# TYPE earsonar_net_shard_restarts_total counter\n";
  for (const ShardHealthWire& s : snapshot)
    out << "earsonar_net_shard_restarts_total{shard=\"" << s.slot << "\"} "
        << s.restarts << "\n";
  out << "# TYPE earsonar_net_shard_sessions_active gauge\n"
      << "# TYPE earsonar_net_shard_last_recovery_ms gauge\n";
  {
    std::shared_lock<std::shared_mutex> lock(membership_mutex_);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::int64_t active =
          shards_[s]->sessions_active.load(std::memory_order_relaxed);
      out << "earsonar_net_shard_sessions_active{shard=\"" << s << "\"} "
          << (active > 0 ? active : 0) << "\n";
      out << "earsonar_net_shard_last_recovery_ms{shard=\"" << s << "\"} "
          << shards_[s]->last_recovery_ms.load(std::memory_order_relaxed)
          << "\n";
    }
  }
  out << "# TYPE earsonar_net_shard_resizes_total counter\n"
      << "earsonar_net_shard_resizes_total "
      << resizes_.load(std::memory_order_relaxed) << "\n";
  return out.str();
}

}  // namespace earsonar::net
