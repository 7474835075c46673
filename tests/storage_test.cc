// Tests of the EXODUS-substitute storage manager: slotted pages, disk
// manager, buffer pool (pin/unpin/LRU), heap files, B+-tree, catalog,
// WAL transactions and recovery, persistent relations, and end-to-end
// declarative queries over persistent data (paper §2, §3.2, §3.3).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "src/core/database.h"
#include "src/storage/btree.h"
#include "src/storage/fault.h"
#include "src/storage/heap_file.h"
#include "src/storage/storage_manager.h"

namespace coral {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("coral_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    prefix_ = (dir_ / "db").string();
  }
  void TearDown() override {
    FaultInjector::Instance().Reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::string prefix_;
};

TEST_F(StorageTest, SlottedPageBasics) {
  alignas(8) char frame[kPageSize];
  SlottedPage page(frame);
  page.Init(SlottedPage::kHeapPage);
  std::string rec1 = "hello";
  std::string rec2 = "world!";
  int s1 = page.Insert({rec1.data(), rec1.size()});
  int s2 = page.Insert({rec2.data(), rec2.size()});
  ASSERT_GE(s1, 0);
  ASSERT_GE(s2, 0);
  EXPECT_EQ(std::string(page.Get(s1).data(), page.Get(s1).size()), "hello");
  EXPECT_EQ(std::string(page.Get(s2).data(), page.Get(s2).size()), "world!");
  EXPECT_TRUE(page.Delete(s1));
  EXPECT_FALSE(page.Delete(s1));
  EXPECT_TRUE(page.Get(s1).empty());
  EXPECT_FALSE(page.Get(s2).empty());
}

TEST_F(StorageTest, SlottedPageFillsUp) {
  alignas(8) char frame[kPageSize];
  SlottedPage page(frame);
  page.Init(SlottedPage::kHeapPage);
  std::string rec(100, 'x');
  int count = 0;
  while (page.Insert({rec.data(), rec.size()}) >= 0) ++count;
  // ~8K / (100+4) ≈ 78 records.
  EXPECT_GT(count, 70);
  EXPECT_LT(count, 85);
}

TEST_F(StorageTest, DiskManagerAllocReadWrite) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(prefix_ + ".db").ok());
  auto p0 = disk.AllocatePage();
  auto p1 = disk.AllocatePage();
  ASSERT_TRUE(p0.ok() && p1.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(*p1, 1u);
  char buf[kPageSize] = {0};
  buf[0] = 42;
  ASSERT_TRUE(disk.WritePage(*p1, buf).ok());
  char back[kPageSize];
  ASSERT_TRUE(disk.ReadPage(*p1, back).ok());
  EXPECT_EQ(back[0], 42);
  EXPECT_FALSE(disk.ReadPage(99, back).ok());  // unallocated
}

TEST_F(StorageTest, BufferPoolCachingAndEviction) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(prefix_ + ".db").ok());
  BufferPool pool(&disk, 4);
  std::vector<PageId> pages;
  for (int i = 0; i < 8; ++i) {
    auto g = pool.New();
    ASSERT_TRUE(g.ok());
    g->MarkDirty();
    g->data()[0] = static_cast<char>(i);
    pages.push_back(g->id());
  }
  // Re-read all: half must miss (pool of 4).
  for (int i = 0; i < 8; ++i) {
    auto g = pool.Fetch(pages[i]);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->data()[0], static_cast<char>(i));
  }
  EXPECT_GT(pool.evictions(), 0u);
  // Repeated access to one page: hits.
  uint64_t before = pool.hits();
  for (int i = 0; i < 5; ++i) {
    auto g = pool.Fetch(pages[7]);
    ASSERT_TRUE(g.ok());
  }
  EXPECT_GE(pool.hits(), before + 4);
}

TEST_F(StorageTest, BufferPoolAllPinnedFails) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(prefix_ + ".db").ok());
  BufferPool pool(&disk, 2);
  auto g1 = pool.New();
  auto g2 = pool.New();
  ASSERT_TRUE(g1.ok() && g2.ok());
  auto g3 = pool.New();  // no frame available
  EXPECT_FALSE(g3.ok());
  g1->Release();
  auto g4 = pool.New();
  EXPECT_TRUE(g4.ok());
}

TEST_F(StorageTest, HeapFileAppendScanDelete) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(prefix_ + ".db").ok());
  BufferPool pool(&disk, 8);
  auto heap = HeapFile::Create(&pool);
  ASSERT_TRUE(heap.ok());
  std::vector<Rid> rids;
  for (int i = 0; i < 500; ++i) {
    std::string rec = "record_" + std::to_string(i) + std::string(50, 'p');
    auto rid = heap->Append({rec.data(), rec.size()});
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  // Spans multiple pages.
  EXPECT_GT(disk.num_pages(), 3u);
  // Scan sees all.
  int n = 0;
  auto it = heap->Scan();
  std::span<const char> rec;
  Rid rid;
  while (it.Next(&rec, &rid)) ++n;
  EXPECT_EQ(n, 500);
  // Delete every other one.
  for (size_t i = 0; i < rids.size(); i += 2) {
    auto removed = heap->Delete(rids[i]);
    ASSERT_TRUE(removed.ok());
    EXPECT_TRUE(*removed);
  }
  n = 0;
  it = heap->Scan();
  while (it.Next(&rec, &rid)) ++n;
  EXPECT_EQ(n, 250);
  // Reopen from root page and rescan.
  auto reopened = HeapFile::Open(&pool, heap->first_page());
  ASSERT_TRUE(reopened.ok());
  n = 0;
  it = reopened->Scan();
  while (it.Next(&rec, &rid)) ++n;
  EXPECT_EQ(n, 250);
}

TEST_F(StorageTest, BTreeInsertLookupAcrossSplits) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(prefix_ + ".db").ok());
  BufferPool pool(&disk, 32);
  auto tree = BTree::Create(&pool);
  ASSERT_TRUE(tree.ok());
  // Enough entries to force multiple levels (keys ~24B, page 8K).
  const int kN = 20000;
  std::mt19937 rng(7);
  std::vector<int> keys(kN);
  for (int i = 0; i < kN; ++i) keys[i] = i;
  std::shuffle(keys.begin(), keys.end(), rng);
  for (int k : keys) {
    char buf[32];
    int len = std::snprintf(buf, sizeof(buf), "key_%08d", k);
    ASSERT_TRUE(
        tree->Insert({buf, static_cast<size_t>(len)},
                     Rid{static_cast<PageId>(k), static_cast<uint16_t>(1)})
            .ok());
  }
  auto count = tree->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, static_cast<size_t>(kN));
  // Point lookups.
  for (int k : {0, 1, 42, 9999, 19999}) {
    char buf[32];
    int len = std::snprintf(buf, sizeof(buf), "key_%08d", k);
    std::vector<Rid> rids;
    ASSERT_TRUE(tree->Lookup({buf, static_cast<size_t>(len)}, &rids).ok());
    ASSERT_EQ(rids.size(), 1u) << k;
    EXPECT_EQ(rids[0].page, static_cast<PageId>(k));
  }
  // Missing key.
  std::vector<Rid> rids;
  ASSERT_TRUE(tree->Lookup("key_99999999", &rids).ok());
  EXPECT_TRUE(rids.empty());
}

TEST_F(StorageTest, BTreeDuplicateKeysAndDelete) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(prefix_ + ".db").ok());
  BufferPool pool(&disk, 16);
  auto tree = BTree::Create(&pool);
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree->Insert("dup", Rid{static_cast<PageId>(i), 0}).ok());
  }
  std::vector<Rid> rids;
  ASSERT_TRUE(tree->Lookup("dup", &rids).ok());
  EXPECT_EQ(rids.size(), 10u);
  auto removed = tree->Delete("dup", Rid{5, 0});
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(*removed);
  rids.clear();
  ASSERT_TRUE(tree->Lookup("dup", &rids).ok());
  EXPECT_EQ(rids.size(), 9u);
  removed = tree->Delete("dup", Rid{5, 0});
  ASSERT_TRUE(removed.ok());
  EXPECT_FALSE(*removed);  // already gone
}

TEST_F(StorageTest, BTreeRangeScan) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(prefix_ + ".db").ok());
  BufferPool pool(&disk, 16);
  auto tree = BTree::Create(&pool);
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 1000; ++i) {
    char buf[16];
    int len = std::snprintf(buf, sizeof(buf), "%05d", i);
    ASSERT_TRUE(tree->Insert({buf, static_cast<size_t>(len)},
                             Rid{static_cast<PageId>(i), 0})
                    .ok());
  }
  std::vector<std::pair<std::string, Rid>> out;
  ASSERT_TRUE(tree->Range("00100", "00199", &out).ok());
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ(out.front().first, "00100");
  EXPECT_EQ(out.back().first, "00199");
}

TEST_F(StorageTest, TupleCodecRoundTrip) {
  TermFactory f;
  std::vector<const Arg*> args = {
      f.MakeInt(-42),
      f.MakeDouble(2.718),
      f.MakeString("hello world"),
      f.MakeAtom("madison"),
      f.MakeBigInt(*BigInt::FromString("123456789012345678901234567890")),
  };
  const Tuple* t = f.MakeTuple(args);
  auto rec = SerializeTuple(t);
  ASSERT_TRUE(rec.ok());
  auto back = DeserializeTuple(std::span<const char>(rec->data(),
                                                     rec->size()), &f);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);  // hash-consing: same canonical tuple

  // Functor-valued fields are rejected (paper §3.2 restriction).
  const Arg* fa[] = {f.MakeInt(1)};
  std::vector<const Arg*> bad = {f.MakeFunctor("f", fa)};
  EXPECT_FALSE(SerializeTuple(f.MakeTuple(bad)).ok());
  EXPECT_FALSE(PersistentRelation::CanStore(f.MakeTuple(bad)));
  std::vector<const Arg*> nonground = {f.CanonicalVar(0)};
  EXPECT_FALSE(PersistentRelation::CanStore(f.MakeTuple(nonground)));
}

TEST_F(StorageTest, PersistentRelationInsertSelectPersist) {
  TermFactory f;
  {
    auto sm = StorageManager::Open(prefix_, &f);
    ASSERT_TRUE(sm.ok()) << sm.status().ToString();
    auto rel = (*sm)->CreateRelation("edge", 2);
    ASSERT_TRUE(rel.ok());
    for (int i = 0; i < 1000; ++i) {
      const Arg* args[] = {f.MakeInt(i % 100), f.MakeInt(i)};
      EXPECT_TRUE((*rel)->Insert(f.MakeTuple(args)));
    }
    // Duplicate rejected via the primary index.
    const Arg* dup[] = {f.MakeInt(5), f.MakeInt(5)};
    EXPECT_FALSE((*rel)->Insert(f.MakeTuple(dup)));
    EXPECT_EQ((*rel)->size(), 1000u);
    ASSERT_TRUE((*sm)->Close().ok());
  }
  // Reopen: data survives.
  {
    auto sm = StorageManager::Open(prefix_, &f);
    ASSERT_TRUE(sm.ok());
    PersistentRelation* rel = (*sm)->FindRelation("edge", 2);
    ASSERT_NE(rel, nullptr);
    EXPECT_EQ(rel->size(), 1000u);
    // Full scan.
    size_t n = 0;
    auto it = rel->Scan();
    while (it->Next()) ++n;
    EXPECT_EQ(n, 1000u);
    // Indexed select on both columns (primary index).
    BindEnv env(0);
    TermRef pattern[] = {{f.MakeInt(7), nullptr}, {f.MakeInt(7), nullptr}};
    auto sel = rel->Select(pattern);
    size_t hits = 0;
    while (sel->Next()) ++hits;
    EXPECT_EQ(hits, 1u);
    ASSERT_TRUE((*sm)->Close().ok());
  }
}

TEST_F(StorageTest, PersistentSecondaryIndexSelect) {
  TermFactory f;
  {
    auto sm = StorageManager::Open(prefix_, &f);
    ASSERT_TRUE(sm.ok());
    auto rel = (*sm)->CreateRelation("emp", 2);
    ASSERT_TRUE(rel.ok());
    for (int i = 0; i < 500; ++i) {
      const Arg* args[] = {f.MakeInt(i % 10), f.MakeInt(i)};
      (*rel)->Insert(f.MakeTuple(args));
    }
    ASSERT_TRUE((*rel)->AddIndex({0}).ok());
    BindEnv env(1);
    TermRef pattern[] = {{f.MakeInt(3), nullptr},
                         {f.MakeVariable(0, "X"), &env}};
    auto sel = (*rel)->Select(pattern);
    size_t hits = 0;
    while (sel->Next()) ++hits;
    EXPECT_EQ(hits, 50u);
    ASSERT_TRUE((*sm)->Close().ok());
  }
  // Reopen: the secondary index root is in the catalog and keeps serving.
  {
    TermFactory f2;
    auto sm = StorageManager::Open(prefix_, &f2);
    ASSERT_TRUE(sm.ok());
    PersistentRelation* rel = (*sm)->FindRelation("emp", 2);
    ASSERT_NE(rel, nullptr);
    BindEnv env(1);
    TermRef pattern[] = {{f2.MakeInt(7), nullptr},
                         {f2.MakeVariable(0, "X"), &env}};
    auto sel = rel->Select(pattern);
    size_t hits = 0;
    while (sel->Next()) ++hits;
    EXPECT_EQ(hits, 50u);
    // Inserts after reopen keep both indexes in sync.
    const Arg* args[] = {f2.MakeInt(7), f2.MakeInt(5000)};
    EXPECT_TRUE(rel->Insert(f2.MakeTuple(args)));
    sel = rel->Select(pattern);
    hits = 0;
    while (sel->Next()) ++hits;
    EXPECT_EQ(hits, 51u);
    ASSERT_TRUE((*sm)->Close().ok());
  }
}

TEST_F(StorageTest, DeclarativeQueryOverPersistentData) {
  // The architecture test: rules consult persistent relations through the
  // same get-next-tuple interface as in-memory ones (paper Fig. 1 + §2).
  TermFactory* f;
  Database db;
  f = db.factory();
  auto sm = StorageManager::Open(prefix_, f);
  ASSERT_TRUE(sm.ok());
  auto rel = (*sm)->CreateRelation("pedge", 2);
  ASSERT_TRUE(rel.ok());
  for (int i = 0; i < 20; ++i) {
    const Arg* args[] = {f->MakeAtom("n" + std::to_string(i)),
                         f->MakeAtom("n" + std::to_string(i + 1))};
    (*rel)->Insert(f->MakeTuple(args));
  }
  ASSERT_TRUE((*sm)->AttachTo(&db).ok());
  ASSERT_TRUE(db.Consult(R"(
    module tc.
    export reach(bf).
    reach(X, Y) :- pedge(X, Y).
    reach(X, Y) :- pedge(X, Z), reach(Z, Y).
    end_module.
  )").ok());
  auto res = db.EvalQuery("reach(n0, X)");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 20u);
  // Inserting a fact through the Database lands in the persistent store.
  auto q = db.Consult("pedge(n20, n21).");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*rel)->size(), 21u);
  ASSERT_TRUE((*sm)->Close().ok());
}

// ProbeArgs is the bytecode VM's direct lookup (PROBE_INDEX). On a
// persistent relation it reads one B-tree and decodes only the records
// the tree names.
std::vector<int64_t> SecondColumn(const std::vector<const Tuple*>& tuples) {
  std::vector<int64_t> out;
  for (const Tuple* t : tuples) {
    out.push_back(ArgCast<IntArg>(t->arg(1))->value());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(StorageTest, PersistentProbeIsExactAfterDeletes) {
  TermFactory f;
  auto sm = StorageManager::Open(prefix_, &f);
  ASSERT_TRUE(sm.ok());
  auto rel = (*sm)->CreateRelation("emp", 2);
  ASSERT_TRUE(rel.ok());
  auto pair = [&f](int64_t a, int64_t b) {
    const Arg* args[] = {f.MakeInt(a), f.MakeInt(b)};
    return f.MakeTuple(args);
  };
  for (int i = 0; i < 300; ++i) (*rel)->Insert(pair(i % 10, i));
  ASSERT_TRUE((*rel)->AddIndex({0}).ok());
  for (int i = 3; i < 300; i += 20) ASSERT_TRUE((*rel)->Delete(pair(3, i)));

  std::vector<int64_t> expect;
  for (int i = 13; i < 300; i += 20) expect.push_back(i);
  const uint32_t col0[] = {0};
  const Arg* key3[] = {f.MakeInt(3)};
  std::vector<const Tuple*> out;
  ASSERT_TRUE((*rel)->ProbeArgs(col0, key3, 0, kMaxMark, &out));
  EXPECT_EQ(SecondColumn(out), expect);  // exact: no deleted record

  // Both columns bound: the primary B-tree is the widest that fits, and
  // the key is reordered into its column order.
  const uint32_t col10[] = {1, 0};
  const Arg* hit[] = {f.MakeInt(13), f.MakeInt(3)};
  const Arg* gone[] = {f.MakeInt(23), f.MakeInt(3)};
  out.clear();
  ASSERT_TRUE((*rel)->ProbeArgs(col10, hit, 0, kMaxMark, &out));
  EXPECT_EQ(SecondColumn(out), std::vector<int64_t>{13});
  out.clear();
  ASSERT_TRUE((*rel)->ProbeArgs(col10, gone, 0, kMaxMark, &out));
  EXPECT_TRUE(out.empty());

  // A value no persistent field can hold matches nothing; a window past
  // interval 0 is empty, as for ScanRange.
  const Arg* inner[] = {f.MakeInt(1)};
  const Arg* functor[] = {f.MakeFunctor("g", inner)};
  ASSERT_TRUE((*rel)->ProbeArgs(col0, functor, 0, kMaxMark, &out));
  ASSERT_TRUE((*rel)->ProbeArgs(col0, key3, 1, kMaxMark, &out));
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE((*sm)->Close().ok());
}

TEST_F(StorageTest, PersistentProbeDeclinesWithoutCoveringBTree) {
  TermFactory f;
  auto sm = StorageManager::Open(prefix_, &f);
  ASSERT_TRUE(sm.ok());
  auto rel = (*sm)->CreateRelation("emp", 2);
  ASSERT_TRUE(rel.ok());
  for (int i = 0; i < 50; ++i) {
    const Arg* args[] = {f.MakeInt(i % 5), f.MakeInt(i)};
    (*rel)->Insert(f.MakeTuple(args));
  }
  const uint32_t col0[] = {0};
  const uint32_t col1[] = {1};
  const Arg* key[] = {f.MakeInt(2)};
  std::vector<const Tuple*> out;
  // Only the primary (both columns) exists: one bound column is not
  // enough to key it.
  EXPECT_FALSE((*rel)->ProbeArgs(col0, key, 0, kMaxMark, &out));
  ASSERT_TRUE((*rel)->AddIndex({1}).ok());
  EXPECT_FALSE((*rel)->ProbeArgs(col0, key, 0, kMaxMark, &out));
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE((*rel)->ProbeArgs(col1, key, 0, kMaxMark, &out));
  EXPECT_EQ(SecondColumn(out), std::vector<int64_t>{2});
  ASSERT_TRUE((*sm)->Close().ok());
}

constexpr char kPreach[] = R"(
  module preach.
  export preach(bf).
  preach(X, Y) :- pedge(X, Y).
  preach(X, Y) :- preach(X, Z), pedge(Z, Y).
  end_module.
)";

TEST_F(StorageTest, PersistentProbeDeclinesOnReadFailure) {
  // A read error anywhere in a probe must not yield partial candidates:
  // the probe either completes or declines and leaves *out as it was.
  // In a query the VM's fallback scan then fails too, and the query
  // reports the error.
  Database db;
  TermFactory* f = db.factory();
  StorageManager::Options opts;
  opts.pool_frames = 4;  // lookups must go to disk
  auto sm = StorageManager::Open(prefix_, f, opts);
  ASSERT_TRUE(sm.ok());
  auto rel = (*sm)->CreateRelation("pedge", 2);
  ASSERT_TRUE(rel.ok());
  // Each key's 30 records are spread over every heap page.
  for (int i = 0; i < 3000; ++i) {
    const Arg* args[] = {f->MakeInt(i % 100), f->MakeInt(i)};
    (*rel)->Insert(f->MakeTuple(args));
  }
  ASSERT_TRUE((*rel)->AddIndex({0}).ok());
  ASSERT_TRUE((*sm)->AttachTo(&db).ok());
  ASSERT_TRUE(db.Consult(kPreach).ok());
  auto warm = db.EvalQuery("preach(3, Y)");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GT(warm->rows.size(), 0u);

  const uint32_t col0[] = {0};
  const Arg* key[] = {f->MakeInt(7)};
  FaultInjector& injector = FaultInjector::Instance();
  // Evicts the pages of the next lookup, then fails the k-th disk read
  // after that (and, with `times`, the ones after it).
  auto fail_read = [&](uint64_t k, uint64_t times) {
    injector.Reset();
    for (auto it = (*rel)->Scan(); it->Next() != nullptr;) {
    }
    FaultSpec fail;
    fail.trigger_hit = injector.hits(fp::kDiskRead) + k;
    fail.times = times;
    injector.Arm(fp::kDiskRead, fail);
  };
  size_t declined = 0;
  for (uint64_t k = 1; k <= 40; ++k) {
    fail_read(k, 1);
    std::vector<const Tuple*> out = {nullptr};
    if ((*rel)->ProbeArgs(col0, key, 0, kMaxMark, &out)) {
      EXPECT_EQ(out.size(), 31u) << "read " << k;
    } else {
      EXPECT_EQ(out.size(), 1u) << "read " << k << ": partial candidates";
      ++declined;
    }
  }
  // Failures hit the B-tree and several heap pages; later ones miss.
  EXPECT_GT(declined, 4u);
  EXPECT_LT(declined, 40u);
  EXPECT_FALSE((*sm)->io_error().ok());

  fail_read(1, 1u << 30);  // every read from now on
  auto failed = db.EvalQuery("preach(3, Y)");
  EXPECT_FALSE(failed.ok()) << "answered "
                            << (failed.ok() ? failed->rows.size() : 0)
                            << " rows from an unreadable relation";
  // Negation as set difference must not read a failed lookup as "no
  // witness".
  auto negated = db.EvalQuery("not pedge(7, 107)");
  EXPECT_FALSE(negated.ok());
  injector.Reset();
  (void)(*sm)->Close();
}

TEST_F(StorageTest, PersistentProbeMatchesHashRelation) {
  // The same recursive query over a persistent base and over an
  // in-memory HashRelation gives the same answers, and the persistent
  // run probes its B-tree for every bound pedge literal.
  std::mt19937 rng(7);
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 400; ++i) {
    edges.emplace_back(static_cast<int>(rng() % 120),
                       static_cast<int>(rng() % 120));
  }
  Database mem;
  std::string facts;
  for (const auto& [a, b] : edges) {
    facts += "pedge(" + std::to_string(a) + ", " + std::to_string(b) + "). ";
  }
  ASSERT_TRUE(mem.Consult(facts).ok());
  ASSERT_TRUE(mem.Consult(kPreach).ok());

  Database disk;
  TermFactory* f = disk.factory();
  StorageManager::Options opts;
  opts.pool_frames = 8;
  auto sm = StorageManager::Open(prefix_, f, opts);
  ASSERT_TRUE(sm.ok());
  auto rel = (*sm)->CreateRelation("pedge", 2);
  ASSERT_TRUE(rel.ok());
  ASSERT_TRUE((*rel)->AddIndex({0}).ok());
  for (const auto& [a, b] : edges) {
    const Arg* args[] = {f->MakeInt(a), f->MakeInt(b)};
    (*rel)->Insert(f->MakeTuple(args));
  }
  ASSERT_TRUE((*sm)->AttachTo(&disk).ok());
  ASSERT_TRUE(disk.Consult(kPreach).ok());

  auto answers = [](Database* db, const std::string& q) {
    auto r = db->EvalQuery(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<std::string> rows;
    if (r.ok()) {
      for (const AnswerRow& row : r->rows) rows.push_back(row.ToString());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  disk.vm_counters()->Reset();
  size_t nonempty = 0;
  for (int n = 0; n < 120; n += 7) {
    std::string q = "preach(" + std::to_string(n) + ", Y)";
    std::vector<std::string> want = answers(&mem, q);
    EXPECT_EQ(answers(&disk, q), want) << q;
    if (!want.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 0u);
  EXPECT_GT(disk.vm_counters()->probe_index.load(), 0u);
  EXPECT_EQ(disk.vm_counters()->probe_scan_fallbacks.load(), 0u);
  ASSERT_TRUE((*sm)->Close().ok());
}

TEST_F(StorageTest, TransactionCommitAndAbort) {
  TermFactory f;
  auto sm = StorageManager::Open(prefix_, &f);
  ASSERT_TRUE(sm.ok());
  auto rel = (*sm)->CreateRelation("t", 1);
  ASSERT_TRUE(rel.ok());

  ASSERT_TRUE((*sm)->Begin().ok());
  const Arg* a1[] = {f.MakeInt(1)};
  EXPECT_TRUE((*rel)->Insert(f.MakeTuple(a1)));
  ASSERT_TRUE((*sm)->Commit().ok());
  EXPECT_EQ((*rel)->size(), 1u);

  ASSERT_TRUE((*sm)->Begin().ok());
  const Arg* a2[] = {f.MakeInt(2)};
  EXPECT_TRUE((*rel)->Insert(f.MakeTuple(a2)));
  ASSERT_TRUE((*sm)->Abort().ok());

  // After abort the second tuple is gone, the first remains.
  PersistentRelation* r = (*sm)->FindRelation("t", 1);
  size_t n = 0;
  auto it = r->Scan();
  const Tuple* t;
  bool saw2 = false;
  while ((t = it->Next()) != nullptr) {
    ++n;
    if (t->arg(0) == f.MakeInt(2)) saw2 = true;
  }
  EXPECT_EQ(n, 1u);
  EXPECT_FALSE(saw2);
  ASSERT_TRUE((*sm)->Close().ok());
}

TEST_F(StorageTest, CrashRecoveryUndoesUncommitted) {
  TermFactory f;
  {
    auto sm = StorageManager::Open(prefix_, &f);
    ASSERT_TRUE(sm.ok());
    auto rel = (*sm)->CreateRelation("t", 1);
    ASSERT_TRUE(rel.ok());
    const Arg* a1[] = {f.MakeInt(1)};
    (*rel)->Insert(f.MakeTuple(a1));
    ASSERT_TRUE((*sm)->SaveCatalog().ok());
    ASSERT_TRUE((*sm)->pool()->FlushAll().ok());

    // Start a transaction, modify, flush pages (simulating arbitrary
    // eviction), then "crash" without commit: skip Close by releasing.
    ASSERT_TRUE((*sm)->Begin().ok());
    const Arg* a2[] = {f.MakeInt(2)};
    (*rel)->Insert(f.MakeTuple(a2));
    ASSERT_TRUE((*sm)->pool()->FlushAll().ok());
    // Simulated crash: drop the file handle without Commit/Close. The
    // dirty pages already hit disk; recovery must undo them.
    (*sm)->SimulateCrash();
  }
  {
    TermFactory f2;
    auto sm = StorageManager::Open(prefix_, &f2);
    ASSERT_TRUE(sm.ok()) << sm.status().ToString();
    PersistentRelation* rel = (*sm)->FindRelation("t", 1);
    ASSERT_NE(rel, nullptr);
    size_t n = 0;
    auto it = rel->Scan();
    const Tuple* t;
    bool saw2 = false;
    while ((t = it->Next()) != nullptr) {
      ++n;
      if (t->arg(0)->ToString() == "2") saw2 = true;
    }
    EXPECT_EQ(n, 1u);
    EXPECT_FALSE(saw2);
    ASSERT_TRUE((*sm)->Close().ok());
  }
}

TEST_F(StorageTest, GetNextTupleCausesPageIO) {
  // Paper §2: a get-next-tuple request on a persistent relation results in
  // page-level I/O through the buffer pool when the page is not cached.
  TermFactory f;
  StorageManager::Options opts;
  opts.pool_frames = 4;  // tiny pool forces misses
  auto sm = StorageManager::Open(prefix_, &f, opts);
  ASSERT_TRUE(sm.ok());
  auto rel = (*sm)->CreateRelation("big", 2);
  ASSERT_TRUE(rel.ok());
  for (int i = 0; i < 5000; ++i) {
    const Arg* args[] = {f.MakeInt(i), f.MakeInt(i * 7)};
    (*rel)->Insert(f.MakeTuple(args));
  }
  uint64_t misses_before = (*sm)->pool()->misses();
  size_t n = 0;
  auto it = (*rel)->Scan();
  while (it->Next()) ++n;
  EXPECT_EQ(n, 5000u);
  EXPECT_GT((*sm)->pool()->misses(), misses_before);
  ASSERT_TRUE((*sm)->Close().ok());
}

}  // namespace
}  // namespace coral
