// Tests for treeq::Document (tree + TreeOrders in one value) and the
// engine's DocumentStore.

#include "tree/document.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "engine/document_store.h"
#include "tree/orders.h"
#include "tree/xml.h"

namespace treeq {
namespace {

Tree SmallTree() { return ParseXml("<a><b/><c><b/></c></a>").value(); }

TEST(DocumentTest, OrdersAreComputedAtConstruction) {
  DocumentPtr doc = MakeDocument(SmallTree());
  TreeOrders expected = ComputeOrders(doc->tree());
  EXPECT_EQ(doc->orders().size, expected.size);
  EXPECT_EQ(doc->orders().depth, expected.depth);
  EXPECT_EQ(doc->orders().size, (std::vector<int>{4, 1, 2, 1}));
  EXPECT_EQ(doc->orders().depth, (std::vector<int>{0, 1, 1, 2}));
}

TEST(DocumentStoreTest, AddGetRemove) {
  engine::DocumentStore store;
  Result<DocumentPtr> added = store.Add("doc1", SmallTree());
  ASSERT_TRUE(added.ok());

  Result<DocumentPtr> got = store.Get("doc1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().get(), added.value().get());

  EXPECT_EQ(store.Get("missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Remove("missing").code(), StatusCode::kNotFound);

  EXPECT_TRUE(store.Remove("doc1").ok());
  EXPECT_EQ(store.size(), 0u);
  // The handle we already hold outlives removal.
  EXPECT_EQ((*added)->num_nodes(), 4);
}

TEST(DocumentStoreTest, DuplicateNameRejected) {
  engine::DocumentStore store;
  ASSERT_TRUE(store.Add("doc", SmallTree()).ok());
  EXPECT_EQ(store.Add("doc", SmallTree()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.size(), 1u);
}

TEST(DocumentStoreTest, NamesSortedAndConcurrentAccess) {
  engine::DocumentStore store;
  ASSERT_TRUE(store.Add("b", SmallTree()).ok());
  ASSERT_TRUE(store.Add("a", SmallTree()).ok());
  ASSERT_TRUE(store.Add("c", SmallTree()).ok());
  EXPECT_EQ(store.Names(), (std::vector<std::string>{"a", "b", "c"}));

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < 200; ++i) {
        EXPECT_TRUE(store.Get("a").ok());
        if (i == 50 && t == 0) {
          EXPECT_TRUE(store.Add("d", SmallTree()).ok());
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.size(), 4u);
}

}  // namespace
}  // namespace treeq
