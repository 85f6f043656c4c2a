#include "kern/backend.hpp"

#include <gtest/gtest.h>

namespace wbsn::kern {
namespace {

/// Restores the entry backend when a test that switches backends exits.
class BackendGuard {
 public:
  BackendGuard() : previous_(active_backend()) {}
  ~BackendGuard() { set_backend(previous_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  Backend previous_;
};

TEST(Backend, ScalarAlwaysAvailable) {
  BackendGuard guard;
  ASSERT_NE(scalar_ops(), nullptr);
  EXPECT_TRUE(set_backend(Backend::kScalar));
  EXPECT_EQ(active_backend(), Backend::kScalar);
  EXPECT_STREQ(backend_name(), "scalar");
}

TEST(Backend, Avx2SelectableIffSupported) {
  BackendGuard guard;
  if (avx2_supported()) {
    ASSERT_NE(avx2_ops(), nullptr);
    EXPECT_TRUE(set_backend(Backend::kAvx2));
    EXPECT_EQ(active_backend(), Backend::kAvx2);
    EXPECT_STREQ(backend_name(), "avx2");
  } else {
    EXPECT_FALSE(set_backend(Backend::kAvx2));
    // A failed switch must leave the selection untouched and usable.
    EXPECT_NE(backend_name(), nullptr);
  }
}

TEST(Backend, OpsTableFullyPopulated) {
  for (const Ops* table : {scalar_ops(), avx2_ops()}) {
    if (table == nullptr) continue;  // AVX2 compiled out.
    EXPECT_NE(table->name, nullptr);
    EXPECT_NE(table->dot, nullptr);
    EXPECT_NE(table->nrm2_sq, nullptr);
    EXPECT_NE(table->axpy, nullptr);
    EXPECT_NE(table->xpby, nullptr);
    EXPECT_NE(table->momentum, nullptr);
    EXPECT_NE(table->fista_step, nullptr);
    EXPECT_NE(table->dwt_step, nullptr);
    EXPECT_NE(table->idwt_step, nullptr);
  }
}

}  // namespace
}  // namespace wbsn::kern
