#include "circuit/netlist.hpp"

#include "circuit/validate.hpp"
#include "devices/alpha_power.hpp"
#include "devices/asdm.hpp"
#include "devices/bsim_lite.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace ssnkit::circuit {

namespace {

std::string to_upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return char(std::toupper(c)); });
  return s;
}

/// Thrown (and always caught inside the parser) after a card-level error
/// was recorded: unwinds to the enclosing per-card loop, which moves on to
/// the next card so the whole file is diagnosed in one pass.
struct CardRecover {};

/// Thrown after a resource-guard violation (SSN-E030) was recorded:
/// unwinds the entire parse. Guards exist to stop *before* memory or stack
/// is exhausted, so there is nothing to recover to.
struct AbortParse {};

/// A token plus its 1-based column in the raw source line.
struct Tok {
  std::string text;
  int col = 0;
};

struct ModelCard {
  enum class Kind { kAsdm, kAlpha, kBsim } kind = Kind::kAsdm;
  MosfetPolarity polarity = MosfetPolarity::kNmos;
  std::map<std::string, double> params;
  int line_no = 0;
};

/// Strip comments and split into tokens, recording original columns.
/// '(' / ')' / ',' are separators; '=' is kept as its own token.
std::vector<Tok> tokenize(const std::string& raw) {
  std::string line = raw;
  for (const char* marker : {";", "//"}) {
    const auto pos = line.find(marker);
    if (pos != std::string::npos) line.erase(pos);
  }
  std::vector<Tok> tokens;
  std::size_t i = 0;
  const auto sep = [](char c) {
    return c == '(' || c == ')' || c == ',';
  };
  while (i < line.size()) {
    const char c = line[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0 || sep(c)) {
      ++i;
      continue;
    }
    if (c == '=') {
      tokens.push_back({"=", int(i) + 1});
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < line.size() && std::isspace(static_cast<unsigned char>(line[j])) == 0 &&
           !sep(line[j]) && line[j] != '=')
      ++j;
    tokens.push_back({line.substr(i, j - i), int(i) + 1});
    i = j;
  }
  return tokens;
}

// ---------------------------------------------------------------------------
// The recovering parser.
// ---------------------------------------------------------------------------

class Parser {
 public:
  Parser(const std::string& text, const ParseOptions& opts,
         ParsedNetlist& out, io::DiagnosticSink& sink)
      : text_(text), opts_(opts), out_(out), sink_(sink) {}

  void run() {
    guard_input_size();
    split_lines();
    collect_models();
    collect_structure();
    walk_body();
    fuse_coupled_inductors();
  }

 private:
  struct Card {
    int line_no = 0;
    std::string raw;
    std::vector<Tok> tokens;
  };
  struct SubcktDef {
    std::vector<std::string> ports;
    std::vector<Card> cards;
    int line_no = 0;
  };
  struct KCard {
    std::string name, l1, l2;
    double k = 0.0;
    int line_no = 0;
    int col = 0;
  };
  struct Scope {
    std::string prefix;                           // "" at top level
    std::map<std::string, std::string> port_map;  // local -> canonical outer
  };

  // --- diagnostics ---------------------------------------------------------

  support::SrcLoc loc(int line_no, int col) const {
    return support::SrcLoc{opts_.filename, line_no, col};
  }
  std::string excerpt(int line_no) const {
    return (line_no >= 1 && std::size_t(line_no) <= lines_.size())
               ? lines_[std::size_t(line_no) - 1]
               : std::string();
  }

  [[noreturn]] void fail(int line_no, int col, const std::string& code,
                         const std::string& msg, const std::string& token = {}) {
    sink_.error(loc(line_no, col), code, msg, token, excerpt(line_no));
    if (sink_.overflowed()) throw AbortParse{};
    throw CardRecover{};
  }

  [[noreturn]] void abort(int line_no, int col, const std::string& msg,
                          const std::string& token = {}) {
    sink_.error(loc(line_no, col), "SSN-E030", msg, token, excerpt(line_no));
    throw AbortParse{};
  }

  void warn(int line_no, int col, const std::string& code,
            const std::string& msg, const std::string& token = {}) {
    sink_.warning(loc(line_no, col), code, msg, token, excerpt(line_no));
  }

  // --- resource guards -----------------------------------------------------

  void guard_input_size() {
    if (text_.size() > opts_.limits.max_input_bytes)
      abort(0, 0,
            "input is " + std::to_string(text_.size()) +
                " bytes, over the " +
                std::to_string(opts_.limits.max_input_bytes) + " byte limit");
  }

  void split_lines() {
    std::istringstream iss(text_);
    std::string raw;
    while (std::getline(iss, raw)) {
      if (!raw.empty() && raw.back() == '\r') raw.pop_back();
      lines_.push_back(raw);
      if (raw.size() > opts_.limits.max_line_length)
        abort(int(lines_.size()), 0,
              "line is " + std::to_string(raw.size()) +
                  " characters, over the " +
                  std::to_string(opts_.limits.max_line_length) + " limit");
    }
  }

  std::vector<Tok> tokens_for(int line_no) {
    auto tokens = tokenize(lines_[std::size_t(line_no) - 1]);
    for (const Tok& t : tokens)
      if (t.text.size() > opts_.limits.max_token_length)
        abort(line_no, t.col,
              "token is " + std::to_string(t.text.size()) +
                  " characters, over the " +
                  std::to_string(opts_.limits.max_token_length) + " limit");
    return tokens;
  }

  void count_element(int line_no, int col) {
    if (++elements_added_ > opts_.limits.max_elements)
      abort(line_no, col,
            "expanded element count exceeds the " +
                std::to_string(opts_.limits.max_elements) +
                " element budget (subcircuit expansion bomb?)");
  }

  // --- number helpers ------------------------------------------------------

  double num(int line_no, const Tok& tok) {
    const io::NumberParse p = parse_spice_number_ex(tok.text);
    if (p.ok) return p.value;
    std::string code = "SSN-E001";
    if (p.error.find("suffix") != std::string::npos) code = "SSN-E002";
    if (p.error.find("out of range") != std::string::npos ||
        p.error.find("non-finite") != std::string::npos)
      code = "SSN-E003";
    fail(line_no, tok.col, code, "bad number '" + tok.text + "': " + p.error,
         tok.text);
  }

  /// key=value pairs starting at tokens[start] (tokens look like
  /// "KEY" "=" "value" after tokenize()).
  std::map<std::string, double> parse_kv(const std::vector<Tok>& tokens,
                                         std::size_t start, int line_no) {
    std::map<std::string, double> kv;
    std::size_t i = start;
    while (i < tokens.size()) {
      if (i + 2 >= tokens.size() || tokens[i + 1].text != "=")
        fail(line_no, tokens[i].col, "SSN-E013",
             "expected KEY=VALUE, got '" + tokens[i].text + "'", tokens[i].text);
      kv[to_upper(tokens[i].text)] = num(line_no, tokens[i + 2]);
      i += 3;
    }
    return kv;
  }

  double kv_get(const std::map<std::string, double>& kv, const std::string& key,
                std::optional<double> fallback, int line_no, int col) {
    const auto it = kv.find(key);
    if (it != kv.end()) return it->second;
    if (fallback) return *fallback;
    fail(line_no, col, "SSN-E014", "missing required model parameter " + key,
         key);
  }

  // --- pass 1: .model cards ------------------------------------------------

  void collect_models() {
    for (int line_no = 1; std::size_t(line_no) <= lines_.size(); ++line_no) {
      try {
        auto tokens = tokens_for(line_no);
        if (tokens.empty() || to_upper(tokens[0].text) != ".MODEL") continue;
        parse_model_line(tokens, line_no);
      } catch (const CardRecover&) {
      }
    }
  }

  void parse_model_line(const std::vector<Tok>& tokens, int line_no) {
    if (tokens.size() < 3)
      fail(line_no, tokens[0].col, "SSN-E010",
           ".model needs a name and a kind", tokens[0].text);
    ModelCard card;
    card.line_no = line_no;
    const std::string kind = to_upper(tokens[2].text);
    if (kind == "ASDM") card.kind = ModelCard::Kind::kAsdm;
    else if (kind == "ALPHA") card.kind = ModelCard::Kind::kAlpha;
    else if (kind == "BSIM") card.kind = ModelCard::Kind::kBsim;
    else
      fail(line_no, tokens[2].col, "SSN-E015",
           "unknown model kind '" + tokens[2].text + "'", tokens[2].text);
    std::vector<Tok> rest(tokens.begin() + 3, tokens.end());
    if (!rest.empty() && to_upper(rest.back().text) == "PMOS") {
      card.polarity = MosfetPolarity::kPmos;
      rest.pop_back();
    } else if (!rest.empty() && to_upper(rest.back().text) == "NMOS") {
      rest.pop_back();
    }
    card.params = parse_kv(rest, 0, line_no);
    validate_model_params(card, tokens, line_no);
    const std::string name = to_upper(tokens[1].text);
    if (models_.count(name) != 0)
      warn(line_no, tokens[1].col, "SSN-W107",
           "redefinition of model '" + tokens[1].text + "'", tokens[1].text);
    models_[name] = card;
  }

  /// Range checks on the declared parameters. Bad values fail the card so
  /// a non-physical model can never reach a device constructor.
  void validate_model_params(const ModelCard& card,
                             const std::vector<Tok>& tokens, int line_no) {
    const int col = tokens[0].col;
    const auto positive = [&](const char* key) {
      const auto it = card.params.find(key);
      if (it != card.params.end() && !(it->second > 0.0))
        fail(line_no, col, "SSN-E103",
             std::string("model parameter ") + key +
                 " must be positive, got " + std::to_string(it->second),
             key);
    };
    switch (card.kind) {
      case ModelCard::Kind::kAsdm: {
        positive("K");
        positive("VX");
        positive("LAMBDA");
        const auto it = card.params.find("LAMBDA");
        if (it != card.params.end() &&
            (it->second < 0.25 || it->second > 4.0))
          warn(line_no, col, "SSN-W106",
               "LAMBDA=" + std::to_string(it->second) +
                   " is outside the ASDM's plausible fitted range "
                   "[0.25, 4]",
               "LAMBDA");
        break;
      }
      case ModelCard::Kind::kAlpha:
        positive("VDD");
        positive("ALPHA");
        positive("ID0");
        positive("VD0");
        break;
      case ModelCard::Kind::kBsim:
        positive("KP");
        positive("VSAT");
        break;
    }
  }

  std::shared_ptr<const devices::MosfetModel> build_model(
      const ModelCard& card, int line_no, int col) {
    try {
      switch (card.kind) {
        case ModelCard::Kind::kAsdm: {
          devices::AsdmParams p;
          p.k = kv_get(card.params, "K", std::nullopt, line_no, col);
          p.lambda = kv_get(card.params, "LAMBDA", 1.0, line_no, col);
          p.vx = kv_get(card.params, "VX", std::nullopt, line_no, col);
          return std::make_shared<devices::AsdmModel>(p);
        }
        case ModelCard::Kind::kAlpha: {
          devices::AlphaPowerParams p;
          p.vdd = kv_get(card.params, "VDD", std::nullopt, line_no, col);
          p.vt0 = kv_get(card.params, "VT0", std::nullopt, line_no, col);
          p.alpha = kv_get(card.params, "ALPHA", std::nullopt, line_no, col);
          p.id0 = kv_get(card.params, "ID0", std::nullopt, line_no, col);
          p.vd0 = kv_get(card.params, "VD0", std::nullopt, line_no, col);
          p.gamma = kv_get(card.params, "GAMMA", 0.0, line_no, col);
          p.phi2f = kv_get(card.params, "PHI2F", 0.85, line_no, col);
          p.lambda_clm = kv_get(card.params, "CLM", 0.0, line_no, col);
          return std::make_shared<devices::AlphaPowerModel>(p);
        }
        case ModelCard::Kind::kBsim: {
          devices::BsimLiteParams p;
          p.kp = kv_get(card.params, "KP", std::nullopt, line_no, col);
          p.vt0 = kv_get(card.params, "VT0", std::nullopt, line_no, col);
          p.gamma = kv_get(card.params, "GAMMA", 0.0, line_no, col);
          p.phi2f = kv_get(card.params, "PHI2F", 0.85, line_no, col);
          p.theta = kv_get(card.params, "THETA", 0.0, line_no, col);
          p.vsat_v = kv_get(card.params, "VSAT", 1e9, line_no, col);
          p.lambda_clm = kv_get(card.params, "CLM", 0.0, line_no, col);
          return std::make_shared<devices::BsimLiteModel>(p);
        }
      }
    } catch (const CardRecover&) {
      throw;  // already diagnosed by kv_get
    } catch (const std::exception& e) {
      // Device constructors validate their parameters; surface the reason
      // with the model line's location instead of leaking the raw throw.
      fail(line_no, col, "SSN-E040",
           std::string("model rejected: ") + e.what());
    }
    fail(line_no, col, "SSN-E015", "unreachable model kind");
  }

  // --- pass 2: structure (subckt blocks vs. top-level body) ---------------

  void collect_structure() {
    SubcktDef* open_subckt = nullptr;
    int open_line = 0;
    for (int line_no = 1; std::size_t(line_no) <= lines_.size(); ++line_no) {
      try {
        const std::string& raw = lines_[std::size_t(line_no) - 1];
        const auto first_char = raw.find_first_not_of(" \t\r");
        if (first_char != std::string::npos && raw[first_char] == '*') continue;
        auto tokens = tokens_for(line_no);
        if (tokens.empty()) continue;
        const std::string head = to_upper(tokens[0].text);
        if (head == ".SUBCKT") {
          if (open_subckt != nullptr)
            fail(line_no, tokens[0].col, "SSN-E020",
                 "nested .subckt definition (previous .subckt on line " +
                     std::to_string(open_line) + " has no .ends)",
                 tokens[0].text);
          if (tokens.size() < 3)
            fail(line_no, tokens[0].col, "SSN-E010",
                 ".subckt needs a name and ports", tokens[0].text);
          SubcktDef def;
          def.line_no = line_no;
          std::set<std::string> port_names;
          for (std::size_t i = 2; i < tokens.size(); ++i) {
            if (!port_names.insert(tokens[i].text).second)
              fail(line_no, tokens[i].col, "SSN-E020",
                   "duplicate port '" + tokens[i].text + "' in .subckt",
                   tokens[i].text);
            def.ports.push_back(tokens[i].text);
          }
          const std::string name = to_upper(tokens[1].text);
          if (subckts_.count(name) != 0)
            warn(line_no, tokens[1].col, "SSN-W107",
                 "redefinition of subcircuit '" + tokens[1].text + "'",
                 tokens[1].text);
          open_subckt = &(subckts_[name] = def);
          open_line = line_no;
          continue;
        }
        if (head == ".ENDS") {
          if (open_subckt == nullptr)
            fail(line_no, tokens[0].col, "SSN-E020", ".ends without .subckt",
                 tokens[0].text);
          open_subckt = nullptr;
          continue;
        }
        if (head == ".MODEL") continue;  // handled in the first pass
        Card card{line_no, raw, std::move(tokens)};
        if (open_subckt != nullptr)
          open_subckt->cards.push_back(std::move(card));
        else
          body_.push_back(std::move(card));
      } catch (const CardRecover&) {
      }
    }
    if (open_subckt != nullptr)
      sink_.error(loc(open_line, 1), "SSN-E020",
                  "unterminated .subckt block (no matching .ends)", ".subckt",
                  excerpt(open_line));
  }

  // --- card interpreter ----------------------------------------------------

  void walk_body() {
    bool first_content_line = true;
    bool ended = false;
    const Scope top;
    for (const Card& card : body_) {
      if (ended) break;
      try {
        const std::string head = to_upper(card.tokens[0].text);
        const char kind = head[0];

        // A leading line that is not a recognizable card is the title.
        if (first_content_line && kind != '.' &&
            std::string("RCLVIGDMKX").find(kind) == std::string::npos) {
          out_.title = card.raw;
          first_content_line = false;
          continue;
        }
        first_content_line = false;

        if (kind == '.') {
          if (head == ".END") {
            ended = true;
            continue;
          }
          if (head == ".TRAN") {
            parse_tran(card);
            continue;
          }
          fail(card.line_no, card.tokens[0].col, "SSN-E012",
               "unknown directive '" + card.tokens[0].text + "'",
               card.tokens[0].text);
        }
        parse_card(card, top, 0);
      } catch (const CardRecover&) {
      }
    }
  }

  void parse_tran(const Card& card) {
    if (card.tokens.size() < 3)
      fail(card.line_no, card.tokens[0].col, "SSN-E010",
           ".tran needs tstep and tstop", card.tokens[0].text);
    TranDirective tran{num(card.line_no, card.tokens[1]),
                       num(card.line_no, card.tokens[2])};
    if (!(tran.tstep > 0.0) || !(tran.tstop > 0.0))
      fail(card.line_no, card.tokens[1].col, "SSN-E103",
           ".tran times must be positive", card.tokens[1].text);
    if (tran.tstep > tran.tstop)
      warn(card.line_no, card.tokens[1].col, "SSN-W106",
           ".tran tstep is larger than tstop", card.tokens[1].text);
    out_.tran = tran;
  }

  void parse_card(const Card& card, const Scope& scope, int depth) {
    const auto& tokens = card.tokens;
    const int line_no = card.line_no;
    const int col = tokens[0].col;
    const std::string head = to_upper(tokens[0].text);
    const char kind = head[0];
    const std::string name = scope.prefix + tokens[0].text;
    Circuit& ckt = out_.circuit;

    const auto node = [&](const Tok& local) -> NodeId {
      if (local.text == "0" || local.text == "gnd" || local.text == "GND")
        return kGround;
      const auto it = scope.port_map.find(local.text);
      if (it != scope.port_map.end()) return ckt.node(it->second);
      return ckt.node(scope.prefix + local.text);
    };
    const auto need = [&](std::size_t n) {
      if (tokens.size() < n)
        fail(line_no, col,
             "SSN-E010",
             "too few fields for a '" + std::string(1, kind) + "' card (need " +
                 std::to_string(n) + ", got " + std::to_string(tokens.size()) +
                 ")",
             tokens[0].text);
    };
    // Circuit::add_* validates names and values (duplicates, R/L/C <= 0,
    // |k| >= 1, ...); surface its rejection with this card's location.
    const auto guarded = [&](const auto& add) {
      count_element(line_no, col);
      try {
        add();
      } catch (const std::exception& e) {
        fail(line_no, col, "SSN-E040",
             std::string("element rejected: ") + e.what(), tokens[0].text);
      }
    };

    switch (kind) {
      case 'R': {
        need(4);
        const double ohms = num(line_no, tokens[3]);
        guarded([&] {
          ckt.add_resistor(name, node(tokens[1]), node(tokens[2]), ohms);
        });
        break;
      }
      case 'C': {
        need(4);
        std::optional<double> ic;
        auto kv = parse_kv(tokens, 4, line_no);
        if (kv.count("IC")) ic = kv["IC"];
        const double farads = num(line_no, tokens[3]);
        guarded([&] {
          ckt.add_capacitor(name, node(tokens[1]), node(tokens[2]), farads, ic);
        });
        break;
      }
      case 'L': {
        need(4);
        std::optional<double> ic;
        auto kv = parse_kv(tokens, 4, line_no);
        if (kv.count("IC")) ic = kv["IC"];
        const double henries = num(line_no, tokens[3]);
        guarded([&] {
          ckt.add_inductor(name, node(tokens[1]), node(tokens[2]), henries, ic);
        });
        break;
      }
      case 'V': {
        need(4);
        auto spec = parse_source_spec(tokens, 3, line_no);
        guarded([&] {
          ckt.add_vsource(name, node(tokens[1]), node(tokens[2]),
                          std::move(spec));
        });
        break;
      }
      case 'I': {
        need(4);
        auto spec = parse_source_spec(tokens, 3, line_no);
        guarded([&] {
          ckt.add_isource(name, node(tokens[1]), node(tokens[2]),
                          std::move(spec));
        });
        break;
      }
      case 'G': {
        need(6);
        const double gm = num(line_no, tokens[5]);
        guarded([&] {
          ckt.add_vccs(name, node(tokens[1]), node(tokens[2]), node(tokens[3]),
                       node(tokens[4]), gm);
        });
        break;
      }
      case 'D': {
        need(3);
        auto kv = parse_kv(tokens, 3, line_no);
        const double is = kv.count("IS") ? kv["IS"] : 1e-14;
        const double n = kv.count("N") ? kv["N"] : 1.0;
        guarded([&] {
          ckt.add_diode(name, node(tokens[1]), node(tokens[2]), is, n);
        });
        break;
      }
      case 'M': {
        need(6);
        const std::string model_name = to_upper(tokens[5].text);
        const auto it = models_.find(model_name);
        if (it == models_.end())
          fail(line_no, tokens[5].col, "SSN-E015",
               "unknown model '" + tokens[5].text + "'", tokens[5].text);
        auto model = build_model(it->second, line_no, col);
        auto kv = parse_kv(tokens, 6, line_no);
        if (kv.count("W") && kv["W"] != 1.0) {  // ssnlint-ignore(SSN-L001)
          model = std::make_shared<devices::ScaledMosfetModel>(model->clone(),
                                                               kv["W"]);
        }
        guarded([&] {
          ckt.add_mosfet(name, node(tokens[1]), node(tokens[2]),
                         node(tokens[3]), node(tokens[4]), std::move(model),
                         it->second.polarity);
        });
        break;
      }
      case 'K': {
        need(4);
        if (tokens[1].text == tokens[2].text)
          fail(line_no, tokens[2].col, "SSN-E021",
               "K card couples inductor '" + tokens[1].text + "' to itself",
               tokens[2].text);
        // Inductor references are names in the current scope.
        k_cards_.push_back({name, scope.prefix + tokens[1].text,
                            scope.prefix + tokens[2].text,
                            num(line_no, tokens[3]), line_no, col});
        break;
      }
      case 'X': {
        need(2);
        if (depth >= opts_.limits.max_subckt_depth)
          abort(line_no, col,
                "subcircuit nesting deeper than " +
                    std::to_string(opts_.limits.max_subckt_depth) +
                    " (recursive definition?)",
                tokens[0].text);
        const std::string sub_name = to_upper(tokens.back().text);
        const auto it = subckts_.find(sub_name);
        if (it == subckts_.end())
          fail(line_no, tokens.back().col, "SSN-E020",
               "unknown subcircuit '" + tokens.back().text + "'",
               tokens.back().text);
        const SubcktDef& def = it->second;
        if (tokens.size() - 2 != def.ports.size())
          fail(line_no, col,
               "SSN-E020",
               "subcircuit '" + tokens.back().text + "' expects " +
                   std::to_string(def.ports.size()) + " ports, got " +
                   std::to_string(tokens.size() - 2),
               tokens.back().text);
        Scope inner;
        inner.prefix = name + ".";
        for (std::size_t i = 0; i < def.ports.size(); ++i) {
          const NodeId outer = node(tokens[i + 1]);
          inner.port_map[def.ports[i]] = out_.circuit.node_name(outer);
        }
        for (const Card& c : def.cards) {
          try {
            parse_card(c, inner, depth + 1);
          } catch (const CardRecover&) {
          }
        }
        break;
      }
      default:
        fail(line_no, col, "SSN-E011", "unknown card '" + tokens[0].text + "'",
             tokens[0].text);
    }
  }

  waveform::SourceSpec parse_source_spec(const std::vector<Tok>& tokens,
                                         std::size_t start, int line_no) {
    if (start >= tokens.size())
      fail(line_no, tokens.back().col, "SSN-E010",
           "missing source specification");
    const std::string kind = to_upper(tokens[start].text);
    const auto arg = [&](std::size_t i) -> double {
      if (start + i >= tokens.size())
        fail(line_no, tokens.back().col, "SSN-E010", "missing source argument",
             tokens.back().text);
      return num(line_no, tokens[start + i]);
    };
    const std::size_t argc = tokens.size() - start - 1;
    if (kind == "DC") {
      if (argc < 1)
        fail(line_no, tokens[start].col, "SSN-E010", "DC needs a value",
             tokens[start].text);
      return waveform::Dc{arg(1)};
    }
    if (kind == "RAMP") {
      if (argc < 4)
        fail(line_no, tokens[start].col, "SSN-E010",
             "RAMP needs (v0 v1 tstart trise)", tokens[start].text);
      return waveform::Ramp{arg(1), arg(2), arg(3), arg(4)};
    }
    if (kind == "PULSE") {
      if (argc < 7)
        fail(line_no, tokens[start].col, "SSN-E010",
             "PULSE needs (v0 v1 delay rise fall width period)",
             tokens[start].text);
      return waveform::Pulse{arg(1), arg(2), arg(3), arg(4),
                             arg(5), arg(6), arg(7)};
    }
    if (kind == "PWL") {
      if (argc < 2 || argc % 2 != 0)
        fail(line_no, tokens[start].col, "SSN-E010", "PWL needs t/v pairs",
             tokens[start].text);
      waveform::Pwl pwl;
      for (std::size_t i = 1; i + 1 <= argc; i += 2)
        pwl.points.emplace_back(arg(i), arg(i + 1));
      return pwl;
    }
    if (kind == "SIN") {
      if (argc < 3)
        fail(line_no, tokens[start].col, "SSN-E010",
             "SIN needs (offset amplitude freq [delay])", tokens[start].text);
      waveform::Sine s{arg(1), arg(2), arg(3), 0.0};
      if (argc >= 4) s.delay = arg(4);
      return s;
    }
    // Bare number: treat as DC.
    const io::NumberParse p = parse_spice_number_ex(tokens[start].text);
    if (p.ok) return waveform::Dc{p.value};
    fail(line_no, tokens[start].col, "SSN-E011",
         "unknown source kind '" + kind + "'", tokens[start].text);
  }

  // --- K-card fusion -------------------------------------------------------

  void fuse_coupled_inductors() {
    for (const auto& kc : k_cards_) {
      try {
        auto* l1 = dynamic_cast<Inductor*>(out_.circuit.find_element(kc.l1));
        auto* l2 = dynamic_cast<Inductor*>(out_.circuit.find_element(kc.l2));
        if (l1 == nullptr || l2 == nullptr)
          fail(kc.line_no, kc.col, "SSN-E021",
               "K card references unknown inductor '" +
                   (l1 == nullptr ? kc.l1 : kc.l2) + "'",
               kc.name);
        const NodeId n1a = l1->node1(), n1b = l1->node2();
        const NodeId n2a = l2->node1(), n2b = l2->node2();
        const double lv1 = l1->inductance(), lv2 = l2->inductance();
        try {
          out_.circuit.remove_element(kc.l1);
          out_.circuit.remove_element(kc.l2);
          out_.circuit.add_coupled_inductors(kc.name, n1a, n1b, n2a, n2b, lv1,
                                             lv2, kc.k);
        } catch (const std::exception& e) {
          fail(kc.line_no, kc.col, "SSN-E040",
               std::string("coupling rejected: ") + e.what(), kc.name);
        }
      } catch (const CardRecover&) {
      }
    }
  }

  const std::string& text_;
  const ParseOptions& opts_;
  ParsedNetlist& out_;
  io::DiagnosticSink& sink_;

  std::vector<std::string> lines_;
  std::map<std::string, ModelCard> models_;
  std::map<std::string, SubcktDef> subckts_;
  std::vector<Card> body_;
  std::vector<KCard> k_cards_;
  std::size_t elements_added_ = 0;
};

}  // namespace

io::NumberParse parse_spice_number_ex(const std::string& token) {
  io::NumberParse p;
  if (token.empty()) {
    p.error = "empty token";
    return p;
  }
  p = io::parse_double_prefix(token);
  if (!p.ok) return p;
  const std::string suffix = to_upper(token.substr(p.consumed));
  double scale = 1.0;
  if (suffix.rfind("MEG", 0) == 0) {
    scale = 1e6;
  } else if (!suffix.empty()) {
    // Trailing unit names (e.g. "10pF", "5nH") are tolerated: the first
    // letter decides the scale.
    switch (suffix[0]) {
      case 'F': scale = 1e-15; break;
      case 'P': scale = 1e-12; break;
      case 'N': scale = 1e-9; break;
      case 'U': scale = 1e-6; break;
      case 'M': scale = 1e-3; break;
      case 'K': scale = 1e3; break;
      case 'G': scale = 1e9; break;
      case 'T': scale = 1e12; break;
      case 'V': case 'A': case 'H': case 'S': case 'O':
        scale = 1.0;  // bare unit letter, no scale
        break;
      default:
        p.ok = false;
        p.error = "bad suffix '" + suffix + "'";
        return p;
    }
  }
  p.value *= scale;
  if (!std::isfinite(p.value)) {
    p.ok = false;
    p.error = "non-finite value after applying suffix '" + suffix + "'";
    return p;
  }
  p.consumed = token.size();
  return p;
}

NetlistParseResult parse_netlist_ex(const std::string& text,
                                    const ParseOptions& options) {
  NetlistParseResult result;
  result.diagnostics = io::DiagnosticSink(options.limits.max_errors);
  Parser parser(text, options, result.netlist, result.diagnostics);
  try {
    parser.run();
  } catch (const AbortParse&) {
    // The guard violation is already in the sink; the partial netlist is
    // returned as-is (ok will be false).
  }
  // Semantic validation only makes sense on a syntactically clean,
  // non-empty parse; an empty netlist is legal at this layer.
  if (!result.diagnostics.has_errors() && options.validate &&
      !result.netlist.circuit.elements().empty()) {
    ValidateOptions vopt;
    vopt.source_name = options.filename;
    validate_circuit(result.netlist.circuit, result.diagnostics, vopt);
  }
  result.ok = !result.diagnostics.has_errors();
  return result;
}

}  // namespace ssnkit::circuit
