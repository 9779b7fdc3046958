#include "src/cube/dirty.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/cube/partials.hpp"
#include "src/net/topology.hpp"

namespace sensornet::cube {
namespace {

struct Fixture {
  sim::Network net;
  net::SpanningTree tree;
  DirtyTracker dirty;

  explicit Fixture(std::uint64_t seed = 7)
      : net(net::make_grid(8, 8), seed),
        tree(net::bfs_tree(net.graph(), 0)),
        dirty(net, tree) {}
};

TEST(DirtyTracker, EverythingIsFreshBeforeAnyChange) {
  Fixture f;
  for (NodeId u = 0; u < f.tree.node_count(); ++u) {
    EXPECT_EQ(f.dirty.subtree_changed_epoch(u), DirtyTracker::kNever);
    for (const NodeId child : f.tree.children[u]) {
      // A partial taken at epoch 0 is still exact...
      EXPECT_TRUE(f.dirty.edge_fresh(child, 0));
      // ...but "no partial" never reads as fresh.
      EXPECT_FALSE(f.dirty.edge_fresh(child, DirtyTracker::kInvalidEpoch));
    }
  }
  EXPECT_EQ(f.dirty.mark_messages(), 0u);
}

TEST(DirtyTracker, MarkPropagatesAlongTheRootPathOnly) {
  Fixture f;
  const NodeId changed = 63;
  const std::vector<NodeId> touched{changed};
  f.dirty.note_updates(touched, 1);

  EXPECT_EQ(f.dirty.subtree_changed_epoch(changed), 1u);
  EXPECT_EQ(f.dirty.subtree_changed_epoch(f.tree.root), 1u);

  // Every edge on the root path is stale for epoch-0 partials; every edge
  // off it stays fresh.
  std::vector<bool> on_path(f.tree.node_count(), false);
  for (NodeId u = changed; u != f.tree.root; u = f.tree.parent[u]) {
    on_path[u] = true;
  }
  std::uint64_t stale_edges = 0;
  for (NodeId u = 0; u < f.tree.node_count(); ++u) {
    for (const NodeId child : f.tree.children[u]) {
      const bool fresh = f.dirty.edge_fresh(child, 0);
      EXPECT_EQ(fresh, !on_path[child]);
      if (!fresh) ++stale_edges;
    }
  }
  EXPECT_EQ(stale_edges, f.tree.depth[changed]);
  // A partial taken at the change epoch is fresh again.
  EXPECT_TRUE(f.dirty.edge_fresh(changed, 1));
  // One mark message per root-path edge.
  EXPECT_EQ(f.dirty.mark_messages(), f.tree.depth[changed]);
}

TEST(DirtyTracker, SiblingMarksCoalesceOnTheSharedPath) {
  Fixture f;
  const std::vector<NodeId> touched{62, 63};
  f.dirty.note_updates(touched, 1);
  const std::uint64_t depth_sum = f.tree.depth[62] + f.tree.depth[63];
  EXPECT_LT(f.dirty.mark_messages(), depth_sum);
  EXPECT_GE(f.dirty.mark_messages(), f.tree.depth[63]);
}

TEST(DirtyTracker, MarkBitsAreMeteredOnTheNetwork) {
  Fixture f;
  const auto before = f.net.summary().total_messages;
  const std::vector<NodeId> touched{63};
  f.dirty.note_updates(touched, 1);
  EXPECT_EQ(f.net.summary().total_messages - before, f.dirty.mark_messages());
}

TEST(DirtyTracker, LaterEpochsStaleEarlierPartials) {
  Fixture f;
  const std::vector<NodeId> touched{63};
  f.dirty.note_updates(touched, 1);
  f.dirty.note_updates(touched, 3);
  EXPECT_EQ(f.dirty.subtree_changed_epoch(63), 3u);
  EXPECT_FALSE(f.dirty.edge_fresh(63, 1));
  EXPECT_FALSE(f.dirty.edge_fresh(63, 2));
  EXPECT_TRUE(f.dirty.edge_fresh(63, 3));
}

TEST(DirtyTracker, ALostMarkFailsTheEpochAndIsSentAgain) {
  // A line 0-1-2-3 reading 10 each, one whole-domain slot collected at
  // epoch 1. Node 3 moves to 50 and every mark of epoch 2 is dropped: the
  // epoch throws, and the next lossless epoch, with no update at all,
  // re-sends the owed mark, so the collection sees the change.
  sim::Network net(net::make_line(4), /*master_seed=*/1);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  net.set_one_item_per_node({10, 10, 10, 10});
  DirtyTracker dirty(net, tree);
  PartialStore store(net, tree, dirty, /*margin=*/0);
  const SlotId slot = store.add_slot({0, 100, true}, /*session=*/0x100);
  std::vector<WaveShare> shares;
  store.collect(std::span(&slot, 1), 1, shares);
  EXPECT_EQ(store.root(slot).core.sum, 40u);

  net.update_item(3, 0, 50);
  const std::vector<NodeId> touched{3};
  net.set_message_loss(1.0);
  const auto before = net.summary(true);
  EXPECT_THROW(dirty.note_updates(touched, 2), ProtocolError);
  EXPECT_EQ(net.summary(true).total_messages - before.total_messages, 1u);
  net.set_message_loss(0.0);

  dirty.note_updates({}, 3);
  EXPECT_EQ(dirty.subtree_changed_epoch(3), 3u);
  EXPECT_EQ(dirty.subtree_changed_epoch(tree.root), 3u);
  store.collect(std::span(&slot, 1), 3, shares);
  EXPECT_EQ(store.root(slot).core.sum, 80u);

  // On lossless links nothing is owed: a quiet epoch sends nothing.
  const auto quiet = net.summary(true);
  dirty.note_updates({}, 4);
  EXPECT_EQ(net.summary(true).total_bits, quiet.total_bits);
}

TEST(DirtyTracker, AnOwedMarkClimbsTheWholeRootPathNextEpoch) {
  Fixture f;
  const std::vector<NodeId> touched{63};
  f.dirty.note_updates(touched, 1);
  const std::uint64_t climb = f.dirty.mark_messages();
  EXPECT_EQ(climb, f.tree.depth[63]);
  f.net.set_message_loss(1.0);
  EXPECT_THROW(f.dirty.note_updates(touched, 2), ProtocolError);
  f.net.set_message_loss(0.0);
  // The parent has not heard: the edge's stamp lags the change below it.
  EXPECT_TRUE(f.dirty.edge_fresh(63, 1));
  f.dirty.note_updates({}, 3);
  for (NodeId u = 63; u != f.tree.root; u = f.tree.parent[u]) {
    EXPECT_EQ(f.dirty.subtree_changed_epoch(u), 3u);
  }
  EXPECT_EQ(f.dirty.mark_messages(), 2 * climb + 1);
}

}  // namespace
}  // namespace sensornet::cube
