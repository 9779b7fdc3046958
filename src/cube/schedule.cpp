#include "src/cube/schedule.hpp"

#include <algorithm>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"

namespace sensornet::cube {

void PushSchedules::subscribe(std::uint32_t id, std::uint32_t period,
                              std::uint32_t phase) {
  SENSORNET_EXPECTS(period > 0 && phase < period);
  ++entries_[id].subscribers[{period, phase}];
}

void PushSchedules::unsubscribe(std::uint32_t id, std::uint32_t period,
                                std::uint32_t phase) {
  const auto entry = entries_.find(id);
  SENSORNET_EXPECTS(entry != entries_.end());
  auto& subscribers = entry->second.subscribers;
  const auto it = subscribers.find({period, phase});
  SENSORNET_EXPECTS(it != subscribers.end());
  if (--it->second == 0) subscribers.erase(it);
}

std::vector<PushSchedules::Due> PushSchedules::Entry::schedule() const {
  std::vector<Due> out;
  for (const auto& [due, count] : subscribers) {  // ascending period
    // (p, h) implies (q, g) when p divides q and g % p == h.
    const auto implies = [&](const Due& d) {
      return due.first % d.first == 0 && due.second % d.first == d.second;
    };
    if (std::none_of(out.begin(), out.end(), implies)) out.push_back(due);
  }
  return out;
}

bool PushSchedules::changed() const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [](const auto& e) { return e.second.changed(); });
}

bool PushSchedules::write_changes(
    BitWriter& w,
    std::vector<std::pair<std::uint32_t, std::uint64_t>>& entries) {
  written_.clear();
  for (const auto& [id, e] : entries_) {
    if (e.changed()) written_.emplace_back(id, e.schedule());
  }
  if (written_.empty()) return false;
  encode_uint(w, written_.size());
  for (const auto& [id, schedule] : written_) {
    const std::size_t before = w.bit_count();
    encode_uint(w, id);
    encode_uint(w, schedule.size());
    for (const auto& [period, phase] : schedule) {
      encode_uint(w, period);
      encode_uint(w, phase);
    }
    entries.emplace_back(id, w.bit_count() - before);
  }
  return true;
}

void PushSchedules::heard(bool every_node) {
  for (auto& [id, schedule] : written_) {
    Entry& e = entries_.at(id);
    e.resend = !every_node;
    if (every_node) e.announced = std::move(schedule);
  }
  written_.clear();
}

std::vector<std::uint32_t> PushSchedules::due(std::uint32_t epoch) const {
  std::vector<std::uint32_t> out;
  for (const auto& [id, e] : entries_) {
    if (std::any_of(e.announced.begin(), e.announced.end(),
                    [&](const Due& d) { return epoch % d.first == d.second; })) {
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace sensornet::cube
