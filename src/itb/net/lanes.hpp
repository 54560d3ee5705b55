// Virtual lanes and the VC-escape lane ladder.
//
// A physical directed channel can be split into several virtual lanes, each
// with its own flit buffer and waiter FIFO; a worm occupies exactly one lane
// of every channel it crosses. Every worm is injected on lane 0; the lane of
// each later traversal is LaneLadder::next of the worm's lane state and the
// channel, a pure function, so multi-lane runs stay bit-identical for any
// --jobs, and the per-lane channel dependency graph
// (engine::build_dependency_graph) checks the very code the network runs.
//
// The ladder (the arXiv:2007.02550 family): a minimal route decomposes into
// maximal up*/down*-valid segments, and segment j rides lane j. The lane
// only climbs, on a down->up transition, so cross-lane dependencies go
// strictly j -> j+1 while each lane's own obey up*/down*: the per-lane CDG
// is acyclic by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "itb/topo/topology.hpp"

namespace itb::net {

/// Per-worm lane state, carried in the Worm and advanced by
/// LaneLadder::next once per traversal. POD so warm worm recycling resets
/// it with two byte stores.
struct LaneState {
  std::uint8_t lane = 0;   // lane the worm currently rides
  std::uint8_t flags = 0;  // kSawDown: a down traversal since the last climb
};

/// The lane budget plus the up*/down* direction of every directed channel
/// of the fabric, in true coordinates (index 2 * link + !forward). Host
/// links and unoriented channels keep a worm on its lane. One lane never
/// climbs, so a one-lane ladder needs no directions at all.
class LaneLadder {
 public:
  enum class Dir : std::uint8_t { kUnoriented, kUp, kDown };

  explicit LaneLadder(unsigned lanes) : lanes_(lanes) {}

  /// Lanes per physical directed channel.
  unsigned lane_count() const { return lanes_; }

  /// Forget every direction; size the table for `links` links.
  void clear(std::size_t links) { dir_.assign(2 * links, Dir::kUnoriented); }
  void set(topo::Channel c, Dir d) { dir_[index(c)] = d; }

  /// Lane of the traversal `c`, called exactly once per traversal in route
  /// order: the network captures the result before it requests the
  /// channel, so a grant after a wait never advances the ladder twice.
  std::uint8_t next(LaneState& state, topo::Channel c) const {
    const std::size_t i = index(c);
    const Dir d = i < dir_.size() ? dir_[i] : Dir::kUnoriented;
    if (d == Dir::kDown) {
      state.flags |= kSawDown;
    } else if (d == Dir::kUp && (state.flags & kSawDown)) {
      // down -> up: the next up*/down*-valid segment, the next lane. The
      // route solve keeps segments <= lanes, so the clamp only keeps a
      // malformed manual route in range.
      if (state.lane + 1u < lanes_) ++state.lane;
      state.flags = 0;
    }
    return state.lane;
  }

 private:
  static constexpr std::uint8_t kSawDown = 1;
  static std::size_t index(topo::Channel c) {
    return 2 * std::size_t{c.link} + (c.forward ? 0 : 1);
  }

  unsigned lanes_;
  std::vector<Dir> dir_;
};

}  // namespace itb::net
