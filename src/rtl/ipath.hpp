#pragma once
// I-path enumeration and BIST embeddings (paper Section II).
//
// A *simple I-path* transfers data unaltered between a register and a module
// port (at most one register, no modules in between — Definition 1).  In the
// mux-connectivity datapath model every register->port and module->register
// connection is a simple I-path, so enumeration reads straight off the
// Datapath connectivity sets.
//
// A *BIST embedding* of a module covers all its ports with I-paths: two
// distinct TPG registers driving the two input ports and one SA register
// receiving the output.  If the SA register equals one of the TPGs, that
// register must operate as test generator and analyzer simultaneously — a
// CBILBO (Wang/McCluskey).
//
// As an extension beyond the paper's simple I-paths, `transparent_ipaths`
// finds length-2 I-paths through modules with an identity mode (x+0, x*1,
// x&1...1, x|0...0): these widen the embedding space further (future-work
// direction noted in our DESIGN.md, exercised by the ablation bench).
//
// A module's embeddings are the cross product of three per-port lists
// (`EmbeddingOptions`): the TPG options of each input port and the
// destination registers.  `visit_embeddings` walks the product of any
// such lists; the full lists give every embedding (`enumerate_embeddings`),
// and the greedy BIST allocator walks shortened lists of its own
// (bist/allocator.cpp).

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "rtl/datapath.hpp"

namespace lbist {

/// Which module port an I-path touches.
enum class IPathPort { Left, Right, Out };

/// A simple I-path between `reg` and `module`'s `port`.
struct SimpleIPath {
  std::size_t reg = 0;
  std::size_t module = 0;
  IPathPort port = IPathPort::Left;
};

/// All simple I-paths of the data path.
[[nodiscard]] std::vector<SimpleIPath> simple_ipaths(const Datapath& dp);

/// One way to test a module: TPGs on both input ports, SA on the output.
///
/// A TPG normally drives its port over a *simple* I-path (direct mux
/// connection).  With transparency enabled, a TPG may instead reach the
/// port through another module held in an identity mode plus the register
/// it writes (reg -> transparent module -> reg -> port); `left_through` /
/// `right_through` record that intermediate module, which must not be
/// under test in the same session.
struct BistEmbedding {
  std::size_t module = 0;
  std::size_t tpg_left = 0;
  std::size_t tpg_right = 0;
  /// SA register; nullopt when the module output is observed at a primary
  /// output/control pin instead of a register (no register cost).
  std::optional<std::size_t> sa;
  /// Module held transparent on the left/right TPG path, if any.
  std::optional<std::size_t> left_through;
  std::optional<std::size_t> right_through;
  /// Intermediate register of the transparent path (the one the identity
  /// module writes and the port reads); occupied for the whole session.
  std::optional<std::size_t> left_via;
  std::optional<std::size_t> right_via;

  /// True if the SA register doubles as one of the TPGs (CBILBO required).
  [[nodiscard]] bool needs_cbilbo() const {
    return sa.has_value() && (*sa == tpg_left || *sa == tpg_right);
  }
  [[nodiscard]] bool uses_transparency() const {
    return left_through.has_value() || right_through.has_value();
  }
};

/// An I-path through a module in an identity mode: data flows
/// `from_reg -> module(port) -> to_reg` unaltered when the other port is
/// held at the identity constant.
struct TransparentIPath {
  std::size_t from_reg = 0;
  std::size_t through_module = 0;
  IPathPort data_port = IPathPort::Left;
  std::size_t to_reg = 0;
};

/// One way to drive a module input port with test patterns: the generator
/// register, and for a transparent path the module held in its identity
/// mode and the register it writes (both nullopt for a direct connection).
struct TpgOption {
  std::size_t reg = 0;
  std::optional<std::size_t> through;
  std::optional<std::size_t> via;
};

/// The lists a BIST embedding of `module` picks one entry of each from.
struct EmbeddingOptions {
  std::size_t module = 0;
  std::vector<TpgOption> left;
  std::vector<TpgOption> right;
  /// SA candidates, ascending; empty when the module output is observed at
  /// a primary output/control pin only.
  std::vector<std::size_t> dests;
};

/// The option lists of module `m`: its direct sources per port in register
/// order, then one-hop transparent options built from `transparent` (the
/// result of `transparent_ipaths(dp)`; empty for simple I-paths only).
[[nodiscard]] EmbeddingOptions embedding_options(
    const Datapath& dp, std::size_t m,
    std::span<const TransparentIPath> transparent = {});

/// Streams the valid embeddings of the cross product left x right x dests
/// to `fn`, in enumeration order (left option outermost, destination
/// innermost); `fn` returns false to stop early.  Returns the number of
/// embeddings visited.
std::size_t visit_embeddings(
    const EmbeddingOptions& options,
    const std::function<bool(const BistEmbedding&)>& fn);

/// Every BIST embedding of module `m`, in `visit_embeddings` order over
/// `embedding_options(dp, m, transparent)`: simple I-paths plus the
/// one-hop `transparent` paths (the result of `transparent_ipaths(dp)`,
/// computed once per data path; empty for simple I-paths only).
/// tpg_left != tpg_right always.  Empty result means the module cannot be
/// pseudo-randomly tested with the present connectivity (e.g. a single
/// register feeds both ports).  The list is up to |left| x |right| x
/// |dests| long — quadratic-to-cubic in register fan-in — so callers that
/// only scan it stream `visit_embeddings` instead.
[[nodiscard]] std::vector<BistEmbedding> enumerate_embeddings(
    const Datapath& dp, std::size_t m,
    std::span<const TransparentIPath> transparent = {});

/// True if the module kind set has an identity constant making one operand
/// transparent (add/sub/or/xor: 0, mul/div: 1, and: all-ones).
[[nodiscard]] bool has_identity_mode(const ModuleProto& proto);

/// Enumerates transparent (length-2) I-paths.
[[nodiscard]] std::vector<TransparentIPath> transparent_ipaths(
    const Datapath& dp);

}  // namespace lbist
