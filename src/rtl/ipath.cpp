#include "rtl/ipath.hpp"

namespace lbist {

std::vector<SimpleIPath> simple_ipaths(const Datapath& dp) {
  std::vector<SimpleIPath> out;
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    const DpModule& mod = dp.modules[m];
    for (std::size_t r : mod.left_sources) {
      out.push_back(SimpleIPath{r, m, IPathPort::Left});
    }
    for (std::size_t r : mod.right_sources) {
      out.push_back(SimpleIPath{r, m, IPathPort::Right});
    }
    for (std::size_t r : mod.dest_registers) {
      out.push_back(SimpleIPath{r, m, IPathPort::Out});
    }
  }
  return out;
}

EmbeddingOptions embedding_options(
    const Datapath& dp, std::size_t m,
    std::span<const TransparentIPath> transparent) {
  // The lists are O(port fan-in + transparent paths), cheap to build even
  // at scale; only their cross product must not materialize.
  const DpModule& mod = dp.modules[m];
  EmbeddingOptions out;
  out.module = m;
  out.dests.assign(mod.dest_registers.begin(), mod.dest_registers.end());
  auto port = [&](const std::set<std::size_t>& sources,
                  std::vector<TpgOption>& options) {
    for (std::size_t r : sources) {
      options.push_back(TpgOption{r, std::nullopt, std::nullopt});
    }
    // One-hop transparent extensions: from_reg -> t(identity) -> to_reg,
    // where to_reg already feeds the port.  Skip options whose generator
    // is already a direct source (no benefit, larger search).
    for (const TransparentIPath& p : transparent) {
      if (p.through_module == m) continue;
      if (sources.count(p.to_reg) == 0) continue;
      if (sources.count(p.from_reg) > 0) continue;
      options.push_back(TpgOption{p.from_reg, p.through_module, p.to_reg});
    }
  };
  port(mod.left_sources, out.left);
  port(mod.right_sources, out.right);
  return out;
}

std::size_t visit_embeddings(
    const EmbeddingOptions& options,
    const std::function<bool(const BistEmbedding&)>& fn) {
  const std::size_t m = options.module;
  std::size_t visited = 0;
  for (const TpgOption& tl : options.left) {
    for (const TpgOption& tr : options.right) {
      if (tl.reg == tr.reg) continue;  // need two independent generators
      // A module cannot be a transparent wire for its own test.
      if ((tl.through.has_value() && *tl.through == m) ||
          (tr.through.has_value() && *tr.through == m)) {
        continue;
      }
      // A via register is overwritten by the pattern stream every cycle:
      // it cannot simultaneously be the other port's generator, and two
      // distinct streams cannot share one via register.
      if (tl.via.has_value() && *tl.via == tr.reg) continue;
      if (tr.via.has_value() && *tr.via == tl.reg) continue;
      if (tl.via.has_value() && tr.via.has_value() && *tl.via == *tr.via) {
        continue;
      }
      BistEmbedding e;
      e.module = m;
      e.tpg_left = tl.reg;
      e.tpg_right = tr.reg;
      e.left_through = tl.through;
      e.right_through = tr.through;
      e.left_via = tl.via;
      e.right_via = tr.via;
      if (options.dests.empty()) {
        e.sa = std::nullopt;  // observed at a primary output/control pin
        ++visited;
        if (!fn(e)) return visited;
      } else {
        for (std::size_t sa : options.dests) {
          // A via register cannot compact while shuttling patterns.
          if ((tl.via.has_value() && *tl.via == sa) ||
              (tr.via.has_value() && *tr.via == sa)) {
            continue;
          }
          e.sa = sa;
          ++visited;
          if (!fn(e)) return visited;
        }
      }
    }
  }
  return visited;
}

std::vector<BistEmbedding> enumerate_embeddings(const Datapath& dp,
                                                std::size_t m) {
  std::vector<BistEmbedding> out;
  for_each_embedding(dp, m, [&](const BistEmbedding& e) {
    out.push_back(e);
    return true;
  });
  return out;
}

std::vector<BistEmbedding> enumerate_embeddings_extended(const Datapath& dp,
                                                         std::size_t m) {
  std::vector<BistEmbedding> out;
  for_each_embedding_extended(dp, m, [&](const BistEmbedding& e) {
    out.push_back(e);
    return true;
  });
  return out;
}

std::size_t for_each_embedding(
    const Datapath& dp, std::size_t m,
    const std::function<bool(const BistEmbedding&)>& fn) {
  return visit_embeddings(embedding_options(dp, m), fn);
}

std::size_t for_each_embedding_extended(
    const Datapath& dp, std::size_t m,
    const std::function<bool(const BistEmbedding&)>& fn) {
  return visit_embeddings(embedding_options(dp, m, transparent_ipaths(dp)),
                          fn);
}

bool has_identity_mode(const ModuleProto& proto) {
  for (OpKind k : proto.supports) {
    switch (k) {
      case OpKind::Add:
      case OpKind::Sub:
      case OpKind::Mul:
      case OpKind::Div:
      case OpKind::And:
      case OpKind::Or:
      case OpKind::Xor:
        return true;  // 0, 1, or all-ones identity exists
      case OpKind::Lt:
      case OpKind::Gt:
        break;  // comparison outputs are 1-bit; no transparency
    }
  }
  return false;
}

std::vector<TransparentIPath> transparent_ipaths(const Datapath& dp) {
  std::vector<TransparentIPath> out;
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    const DpModule& mod = dp.modules[m];
    if (!has_identity_mode(mod.proto)) continue;
    for (std::size_t to : mod.dest_registers) {
      for (std::size_t from : mod.left_sources) {
        out.push_back(TransparentIPath{from, m, IPathPort::Left, to});
      }
      for (std::size_t from : mod.right_sources) {
        out.push_back(TransparentIPath{from, m, IPathPort::Right, to});
      }
    }
  }
  return out;
}

}  // namespace lbist
