// Push schedules: which pushed entries (a shared-plan scheduler's stats
// groups, a cube's slots) are due in an epoch, as the root keeps them and as
// the nodes last heard them.
//
// An entry's continuous subscribers are each due in the epochs e with
// e % period == phase. The nodes push an entry in every epoch its schedule
// makes due: the distinct (period, phase) pairs of its subscribers, less
// those another pair implies ((p, h) implies (q, g) when p divides q and
// g % p == h), so a new subscriber that another already covers changes
// nothing. Its owner tells the nodes of changes in one broadcast, whose
// payload is
//
//   count (encode_uint), then per changed entry in ascending id order: its
//   id, the number of its pairs, and each pair's period and phase (all
//   encode_uint)
//
// An entry whose last subscriber left announces an empty schedule once and
// is then never due. When a node misses the broadcast, the nodes disagree
// on the schedules in it until they are sent again: heard(false) keeps them
// changed, and the owner must run no fused wave before a broadcast that
// every node heard (see cube/dirty.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/bitio.hpp"

namespace sensornet::cube {

class PushSchedules {
 public:
  /// Enrols a continuous subscriber of entry `id`, due in every epoch e
  /// with e % period == phase (phase < period).
  void subscribe(std::uint32_t id, std::uint32_t period, std::uint32_t phase);
  /// Withdraws one subscribe() of the same arguments.
  void unsubscribe(std::uint32_t id, std::uint32_t period,
                   std::uint32_t phase);

  /// True while entry `id` has a live subscriber.
  bool subscribed(std::uint32_t id) const {
    const auto it = entries_.find(id);
    return it != entries_.end() && !it->second.subscribers.empty();
  }

  /// True when a schedule changed since the nodes last heard it.
  bool changed() const;
  /// Writes the schedules that changed since the nodes last heard them
  /// (see the file comment) and appends each entry's id and own bits to
  /// `entries`. Writes nothing and returns false when none changed.
  bool write_changes(BitWriter& w,
                     std::vector<std::pair<std::uint32_t, std::uint64_t>>&
                         entries);
  /// Ends the broadcast of the last write_changes(): when every node heard
  /// it, the nodes hold its schedules; otherwise the next write_changes()
  /// writes them again.
  void heard(bool every_node);

  /// The entries whose schedule, as the nodes hold it, makes them due in
  /// `epoch`, ascending.
  std::vector<std::uint32_t> due(std::uint32_t epoch) const;

 private:
  using Due = std::pair<std::uint32_t, std::uint32_t>;  // (period, phase)
  struct Entry {
    std::map<Due, std::uint32_t> subscribers;  // live, per pair
    std::vector<Due> announced;                // as the nodes hold it
    bool resend = false;  // a node may have missed `announced`

    std::vector<Due> schedule() const;
    bool changed() const { return resend || schedule() != announced; }
  };
  std::map<std::uint32_t, Entry> entries_;
  /// What the last write_changes() wrote, per entry.
  std::vector<std::pair<std::uint32_t, std::vector<Due>>> written_;
};

}  // namespace sensornet::cube
