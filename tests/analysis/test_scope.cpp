// Lock-region extraction against the locking shapes the real tree
// uses (block-scoped regions in Server::stop, the reaper's mid-scope
// unlock()/lock() toggle, in-class accessors, file-scope mutexes).
#include "analysis/scope.hpp"

#include <gtest/gtest.h>

#include "analysis/lexer.hpp"

namespace {

using incprof::analysis::LockAnalysis;
using incprof::analysis::analyze_locks;
using incprof::analysis::make_views;

LockAnalysis analyze(const std::string& text) {
  return analyze_locks(make_views(text));
}

TEST(Scope, BlockScopedLockDiesAtItsBrace) {
  // Server::stop: grab state under the lock, join outside it.
  const LockAnalysis a = analyze(
      "void Server::stop() {\n"
      "  {\n"
      "    util::MutexLock lock(handlers_mu_);\n"
      "    collect();\n"
      "  }\n"
      "  join_all();\n"
      "}\n");
  ASSERT_EQ(a.spans.size(), 1u);
  EXPECT_EQ(a.spans[0].key, "Server::handlers_mu_");
  EXPECT_EQ(a.spans[0].function, "Server::stop");
  EXPECT_EQ(a.spans[0].begin_line, 3u);
  EXPECT_EQ(a.spans[0].end_line, 5u);
  EXPECT_TRUE(a.held_at(4, 2));
  EXPECT_FALSE(a.held_at(6, 2));
}

TEST(Scope, InClassMethodQualifiesWithInnermostClass) {
  // The Handler accessors in server.hpp are defined in-class.
  const LockAnalysis a = analyze(
      "class Server {\n"
      "  struct Handler {\n"
      "    long hits() const {\n"
      "      util::MutexLock lock(mu_);\n"
      "      return hits_;\n"
      "    }\n"
      "  };\n"
      "};\n");
  ASSERT_EQ(a.spans.size(), 1u);
  EXPECT_EQ(a.spans[0].key, "Handler::mu_");
  EXPECT_EQ(a.spans[0].function, "Handler::hits");
}

TEST(Scope, FileScopeMutexKeepsBareName) {
  const LockAnalysis a = analyze(
      "void flush_logs() {\n"
      "  util::MutexLock lock(g_sink_mu);\n"
      "}\n");
  ASSERT_EQ(a.spans.size(), 1u);
  EXPECT_EQ(a.spans[0].key, "g_sink_mu");
}

TEST(Scope, ThisArrowIsStripped) {
  const LockAnalysis a = analyze(
      "void Gateway::tick() {\n"
      "  util::MutexLock lock(this->state_mu_);\n"
      "}\n");
  ASSERT_EQ(a.spans.size(), 1u);
  EXPECT_EQ(a.spans[0].key, "Gateway::state_mu_");
}

TEST(Scope, ReaperUnlockRelockSplitsTheRegion) {
  // The server.cpp reaper pattern: release the loop lock, take the
  // handlers lock in an inner block, re-acquire afterwards.
  const LockAnalysis a = analyze(
      "void Server::reaper_loop() {\n"
      "  util::MutexLock lock(reaper_mu_);\n"
      "  while (!stop_) {\n"
      "    lock.unlock();\n"
      "    {\n"
      "      util::MutexLock handlers(handlers_mu_);\n"
      "      reap();\n"
      "    }\n"
      "    lock.lock();\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(a.spans.size(), 3u);
  // While the handlers lock is held, the reaper lock is NOT.
  const auto held = a.held_keys_at(7, 6);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0], "Server::handlers_mu_");
  // No nesting recorded anywhere: the toggle kept the regions disjoint.
  EXPECT_TRUE(a.nestings.empty());
  // Three acquisitions: reaper, handlers, reaper again.
  ASSERT_EQ(a.acquisitions.size(), 3u);
  EXPECT_EQ(a.acquisitions[0].key, "Server::reaper_mu_");
  EXPECT_EQ(a.acquisitions[1].key, "Server::handlers_mu_");
  EXPECT_EQ(a.acquisitions[2].key, "Server::reaper_mu_");
}

TEST(Scope, NestedAcquisitionIsRecorded) {
  // status_mu_ then queue_mu_, as in Session::row — the one real
  // lexical nesting in the service layer.
  const LockAnalysis a = analyze(
      "std::string Session::status_line() {\n"
      "  util::MutexLock status(status_mu_);\n"
      "  util::MutexLock queue(queue_mu_);\n"
      "  return render();\n"
      "}\n");
  ASSERT_EQ(a.nestings.size(), 1u);
  EXPECT_EQ(a.nestings[0].outer_key, "Session::status_mu_");
  EXPECT_EQ(a.nestings[0].inner_key, "Session::queue_mu_");
  EXPECT_EQ(a.nestings[0].line, 3u);
  EXPECT_EQ(a.nestings[0].function, "Session::status_line");
}

TEST(Scope, PreprocessorLinesAreSkipped) {
  const LockAnalysis a = analyze(
      "#define LOCK() util::MutexLock lock(mu_)\n"
      "#define TWO_LINES \\\n"
      "  util::MutexLock l2(mu_)\n"
      "void f() {\n"
      "}\n");
  EXPECT_TRUE(a.acquisitions.empty());
}

TEST(Scope, AnonNamespaceClassGetsClassKey) {
  // loopback.cpp's FrameQueue: a class inside an anonymous namespace
  // with in-class methods.
  const LockAnalysis a = analyze(
      "namespace {\n"
      "class FrameQueue {\n"
      " public:\n"
      "  void push(Frame f) {\n"
      "    util::MutexLock lock(mu_);\n"
      "    q_.push_back(std::move(f));\n"
      "  }\n"
      "};\n"
      "}  // namespace\n");
  ASSERT_EQ(a.spans.size(), 1u);
  EXPECT_EQ(a.spans[0].key, "FrameQueue::mu_");
}

TEST(Scope, ControlFlowBracesStayInTheFunction) {
  // Server::resume_session: the lock region sits inside an if block;
  // lines after the block are outside the region but still in the
  // same function.
  const LockAnalysis a = analyze(
      "void Server::resume_session() {\n"
      "  if (ok) {\n"
      "    util::MutexLock lock(handlers_mu_);\n"
      "    route();\n"
      "  }\n"
      "  reply();\n"
      "}\n");
  ASSERT_EQ(a.spans.size(), 1u);
  EXPECT_EQ(a.spans[0].function, "Server::resume_session");
  EXPECT_TRUE(a.held_at(4, 2));
  EXPECT_FALSE(a.held_at(6, 2));
}

TEST(Scope, UnbalancedInputStillClosesSpans) {
  const LockAnalysis a = analyze(
      "void f() {\n"
      "  util::MutexLock lock(mu_);\n");
  ASSERT_EQ(a.spans.size(), 1u);
  EXPECT_GE(a.spans[0].end_line, a.spans[0].begin_line);
}

}  // namespace
