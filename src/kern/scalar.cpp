// Portable scalar backend: thin wrappers over the canonical reference
// implementations (scalar_ref.hpp), which define the bit-exact semantics
// every backend must reproduce.
#include "kern/backend.hpp"
#include "kern/scalar_ref.hpp"

namespace wbsn::kern {
namespace {

constexpr Ops kScalarOps = {
    "scalar",
    ref::dot,
    ref::nrm2_sq,
    ref::axpy,
    ref::xpby,
    ref::grad_step,
    ref::momentum,
    ref::fista_step,
    ref::spmv,
    ref::dwt_step,
    ref::idwt_step,
};

}  // namespace

const Ops* scalar_ops() { return &kScalarOps; }

}  // namespace wbsn::kern
