#include "dfg/parse.hpp"

#include <sstream>
#include <vector>

#include "support/check.hpp"

namespace lbist {

namespace {

struct PendingOp {
  std::string name;
  std::string sym;
  std::string lhs, rhs, result;
  std::optional<int> step;
  int line = 0;
};

[[noreturn]] void parse_fail(int line, const std::string& msg) {
  throw Error("dfg parse error at line " + std::to_string(line) + ": " + msg);
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> toks;
  std::string t;
  while (is >> t) {
    if (t.front() == '#') break;  // rest of line is a comment
    toks.push_back(t);
  }
  return toks;
}

}  // namespace

ParsedDfg parse_dfg(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  int lineno = 0;

  std::string dfg_name = "unnamed";
  std::vector<std::pair<std::string, bool>> inputs;  // name, port_resident
  std::vector<PendingOp> pending;
  std::vector<std::pair<std::string, int>> outputs;   // name, line
  std::vector<std::pair<std::string, int>> controls;  // name, line
  std::vector<std::tuple<std::string, std::string, int>> carries;

  while (std::getline(in, line)) {
    ++lineno;
    auto toks = tokens_of(line);
    if (toks.empty()) continue;
    const std::string& kw = toks[0];
    if (kw == "dfg") {
      if (toks.size() != 2) parse_fail(lineno, "expected: dfg <name>");
      dfg_name = toks[1];
    } else if (kw == "input" || kw == "portinput") {
      if (toks.size() < 2) parse_fail(lineno, "expected at least one name");
      for (std::size_t i = 1; i < toks.size(); ++i) {
        inputs.emplace_back(toks[i], kw == "portinput");
      }
    } else if (kw == "op") {
      // op <name> <sym> <lhs> <rhs> -> <result> [@step]
      if (toks.size() < 7 || toks[5] != "->") {
        parse_fail(lineno, "expected: op <name> <sym> <lhs> <rhs> -> <result> "
                           "[@step]");
      }
      PendingOp p;
      p.name = toks[1];
      p.sym = toks[2];
      p.lhs = toks[3];
      p.rhs = toks[4];
      p.result = toks[6];
      p.line = lineno;
      if (toks.size() >= 8) {
        if (toks[7].size() < 2 || toks[7][0] != '@') {
          parse_fail(lineno, "expected @<step>, got: " + toks[7]);
        }
        try {
          p.step = std::stoi(toks[7].substr(1));
        } catch (const std::exception&) {
          parse_fail(lineno, "bad step number: " + toks[7]);
        }
      }
      pending.push_back(std::move(p));
    } else if (kw == "output") {
      for (std::size_t i = 1; i < toks.size(); ++i) {
        outputs.emplace_back(toks[i], lineno);
      }
    } else if (kw == "control") {
      for (std::size_t i = 1; i < toks.size(); ++i) {
        controls.emplace_back(toks[i], lineno);
      }
    } else if (kw == "carry") {
      if (toks.size() != 3) {
        parse_fail(lineno, "expected: carry <carried-output> <init-input>");
      }
      carries.emplace_back(toks[1], toks[2], lineno);
    } else {
      parse_fail(lineno, "unknown directive: " + kw);
    }
  }

  Dfg dfg(dfg_name);
  for (const auto& [iname, port] : inputs) dfg.add_input(iname, port);
  for (const auto& p : pending) {
    auto lhs = dfg.find_var(p.lhs);
    auto rhs = dfg.find_var(p.rhs);
    if (!lhs) parse_fail(p.line, "unknown operand: " + p.lhs);
    if (!rhs) parse_fail(p.line, "unknown operand: " + p.rhs);
    dfg.add_op(kind_from_symbol(p.sym), *lhs, *rhs, p.result, p.name);
  }
  for (const auto& [oname, l] : outputs) {
    auto v = dfg.find_var(oname);
    if (!v) parse_fail(l, "unknown output variable: " + oname);
    dfg.mark_output(*v);
  }
  for (const auto& [cname, l] : controls) {
    auto v = dfg.find_var(cname);
    if (!v) parse_fail(l, "unknown control variable: " + cname);
    dfg.mark_control_only(*v);
  }
  for (const auto& [out_name, in_name, l] : carries) {
    auto out = dfg.find_var(out_name);
    auto init = dfg.find_var(in_name);
    if (!out) parse_fail(l, "unknown carried variable: " + out_name);
    if (!init) parse_fail(l, "unknown init variable: " + in_name);
    dfg.tie_loop(*out, *init);
  }
  dfg.validate();

  std::size_t with_step = 0;
  for (const auto& p : pending) with_step += p.step.has_value() ? 1u : 0u;
  std::optional<Schedule> sched;
  if (with_step == pending.size() && !pending.empty()) {
    IdMap<OpId, int> steps(dfg.num_ops());
    for (std::size_t i = 0; i < pending.size(); ++i) {
      steps[OpId{static_cast<OpId::value_type>(i)}] = *pending[i].step;
    }
    sched.emplace(dfg, std::move(steps));
  } else if (with_step != 0) {
    throw Error("dfg parse error: @step given for some but not all ops");
  }

  return ParsedDfg{std::move(dfg), std::move(sched)};
}

std::string print_dfg(const Dfg& dfg, const Schedule* sched) {
  std::ostringstream os;
  os << "dfg " << dfg.name() << "\n";
  std::string inputs, portinputs;
  for (const auto& v : dfg.vars()) {
    if (!v.is_input()) continue;
    (v.port_resident ? portinputs : inputs) += " " + v.name;
  }
  if (!inputs.empty()) os << "input" << inputs << "\n";
  if (!portinputs.empty()) os << "portinput" << portinputs << "\n";
  for (const auto& op : dfg.ops()) {
    os << "op " << op.name << " " << symbol(op.kind) << " "
       << dfg.var(op.lhs).name << " " << dfg.var(op.rhs).name << " -> "
       << dfg.var(op.result).name;
    if (sched != nullptr) os << " @" << sched->step(op.id);
    os << "\n";
  }
  std::string outs, ctrls;
  for (const auto& v : dfg.vars()) {
    if (v.is_output) outs += " " + v.name;
    if (v.control_only) ctrls += " " + v.name;
  }
  if (!outs.empty()) os << "output" << outs << "\n";
  if (!ctrls.empty()) os << "control" << ctrls << "\n";
  for (const auto& [carried, init] : dfg.loop_ties()) {
    os << "carry " << dfg.var(carried).name << " " << dfg.var(init).name
       << "\n";
  }
  return os.str();
}

}  // namespace lbist
