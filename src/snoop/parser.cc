#include "snoop/parser.h"

namespace sentinel::snoop {

namespace {

Result<oodb::ValueType> ParseType(const std::string& name) {
  if (name == "int") return oodb::ValueType::kInt;
  if (name == "double" || name == "float") return oodb::ValueType::kDouble;
  if (name == "string") return oodb::ValueType::kString;
  if (name == "bool") return oodb::ValueType::kBool;
  if (name == "oid") return oodb::ValueType::kOid;
  return Status::ParseError("unknown attribute type: " + name);
}

Result<detector::ParamContext> ParseContext(const std::string& name) {
  if (name == "RECENT") return detector::ParamContext::kRecent;
  if (name == "CHRONICLE") return detector::ParamContext::kChronicle;
  if (name == "CONTINUOUS") return detector::ParamContext::kContinuous;
  if (name == "CUMULATIVE") return detector::ParamContext::kCumulative;
  return Status::ParseError("unknown parameter context: " + name);
}

Result<rules::CouplingMode> ParseCoupling(const std::string& name) {
  if (name == "IMMEDIATE") return rules::CouplingMode::kImmediate;
  if (name == "DEFERRED") return rules::CouplingMode::kDeferred;
  if (name == "DETACHED") return rules::CouplingMode::kDetached;
  return Status::ParseError("unknown coupling mode: " + name);
}

Result<rules::TriggerMode> ParseTrigger(const std::string& name) {
  if (name == "NOW") return rules::TriggerMode::kNow;
  if (name == "PREVIOUS") return rules::TriggerMode::kPrevious;
  return Status::ParseError("unknown trigger mode: " + name);
}

bool IsContextName(const std::string& n) {
  return n == "RECENT" || n == "CHRONICLE" || n == "CONTINUOUS" ||
         n == "CUMULATIVE";
}
bool IsCouplingName(const std::string& n) {
  return n == "IMMEDIATE" || n == "DEFERRED" || n == "DETACHED";
}
bool IsTriggerName(const std::string& n) {
  return n == "NOW" || n == "PREVIOUS";
}

std::unique_ptr<EventExpr> Binary(EventExpr::Kind kind,
                                  std::unique_ptr<EventExpr> left,
                                  std::unique_ptr<EventExpr> right) {
  auto node = std::make_unique<EventExpr>();
  node->kind = kind;
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}

}  // namespace

std::string EventExpr::ToString() const {
  switch (kind) {
    case Kind::kRef:
      return ref_name;
    case Kind::kPrimitive: {
      std::string s = modifier == detector::EventModifier::kBegin ? "begin("
                                                                  : "end(";
      s += "\"" + class_name + "\"";
      if (!instance_name.empty()) s += ":\"" + instance_name + "\"";
      s += ", \"" + signature + "\")";
      return s;
    }
    case Kind::kOr:
      return "(" + children[0]->ToString() + " | " + children[1]->ToString() +
             ")";
    case Kind::kAnd:
      return "(" + children[0]->ToString() + " ^ " + children[1]->ToString() +
             ")";
    case Kind::kSeq:
      return "(" + children[0]->ToString() + " ; " + children[1]->ToString() +
             ")";
    case Kind::kNot:
      return "NOT(" + children[1]->ToString() + ")[" +
             children[0]->ToString() + ", " + children[2]->ToString() + "]";
    case Kind::kAperiodic:
      return "A(" + children[0]->ToString() + ", " + children[1]->ToString() +
             ", " + children[2]->ToString() + ")";
    case Kind::kAperiodicStar:
      return "A*(" + children[0]->ToString() + ", " +
             children[1]->ToString() + ", " + children[2]->ToString() + ")";
    case Kind::kPlus:
      return "PLUS(" + children[0]->ToString() + ", " +
             std::to_string(time_ms) + ")";
    case Kind::kPeriodic:
      return "P(" + children[0]->ToString() + ", " + std::to_string(time_ms) +
             ", " + children[1]->ToString() + ")";
    case Kind::kPeriodicStar:
      return "P*(" + children[0]->ToString() + ", " + std::to_string(time_ms) +
             ", " + children[1]->ToString() + ")";
    case Kind::kAny: {
      std::string s = "ANY(" + std::to_string(any_threshold);
      for (const auto& child : children) s += ", " + child->ToString();
      return s + ")";
    }
  }
  return "?";
}

Status Parser::Error(const std::string& message) const {
  return Status::ParseError(message + " (line " +
                            std::to_string(lexer_.Peek().line) + ")");
}

Status Parser::Expect(TokenKind kind, const std::string& what) {
  if (lexer_.Peek().kind != kind) {
    return Error("expected " + what + ", got '" + lexer_.Peek().text + "'");
  }
  lexer_.Next();
  return Status::OK();
}

Result<Spec> Parser::Parse(const std::string& source) {
  Parser parser(source);
  Spec spec;
  Status st = parser.ParseSpec(&spec);
  if (!st.ok()) return st;
  return spec;
}

Result<std::unique_ptr<EventExpr>> Parser::ParseExpression(
    const std::string& source) {
  Parser parser(source);
  return parser.ParseExpr();
}

Status Parser::ParseSpec(Spec* spec) {
  while (lexer_.Peek().kind != TokenKind::kEnd) {
    const Token& token = lexer_.Peek();
    if (token.kind != TokenKind::kIdent) {
      return Error("expected 'class', 'event' or 'rule'");
    }
    if (token.text == "class") {
      auto cls = ParseClass();
      if (!cls.ok()) return cls.status();
      spec->classes.push_back(std::move(*cls));
    } else if (token.text == "event") {
      auto event = ParseNamedEvent();
      if (!event.ok()) return event.status();
      SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kSemicolon, "';'"));
      spec->events.push_back(std::move(*event));
    } else if (token.text == "rule") {
      auto rule = ParseRule();
      if (!rule.ok()) return rule.status();
      SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kSemicolon, "';'"));
      spec->rules.push_back(std::move(*rule));
    } else {
      return Error("expected 'class', 'event' or 'rule', got '" + token.text +
                   "'");
    }
  }
  return Status::OK();
}

Result<ClassDecl> Parser::ParseClass() {
  lexer_.Next();  // 'class'
  ClassDecl decl;
  if (lexer_.Peek().kind != TokenKind::kIdent) {
    return Error("expected class name");
  }
  decl.name = lexer_.Next().text;
  if (lexer_.Peek().kind == TokenKind::kColon) {
    lexer_.Next();
    // Allow "public REACTIVE" for C++ flavour.
    if (lexer_.Peek().kind == TokenKind::kIdent &&
        lexer_.Peek().text == "public") {
      lexer_.Next();
    }
    if (lexer_.Peek().kind != TokenKind::kIdent) {
      return Error("expected base class name");
    }
    decl.base = lexer_.Next().text;
  }
  SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kLBrace, "'{'"));

  while (lexer_.Peek().kind != TokenKind::kRBrace) {
    const Token& token = lexer_.Peek();
    if (token.kind == TokenKind::kEnd) return Error("unterminated class body");
    if (token.kind != TokenKind::kIdent) {
      return Error("unexpected token '" + token.text + "' in class body");
    }
    if (token.text == "attr") {
      lexer_.Next();
      AttributeDecl attr;
      if (lexer_.Peek().kind != TokenKind::kIdent) {
        return Error("expected attribute name");
      }
      attr.name = lexer_.Next().text;
      SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kColon, "':'"));
      if (lexer_.Peek().kind != TokenKind::kIdent) {
        return Error("expected attribute type");
      }
      auto type = ParseType(lexer_.Next().text);
      if (!type.ok()) return type.status();
      attr.type = *type;
      SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kSemicolon, "';'"));
      decl.attributes.push_back(std::move(attr));
    } else if (token.text == "event") {
      lexer_.Next();
      // Two forms: interface declaration (begin/end binding before a raw
      // signature) or a named event definition (IDENT '=').
      if (lexer_.Peek().kind == TokenKind::kIdent &&
          (lexer_.Peek().text == "begin" || lexer_.Peek().text == "end")) {
        // modbind { '&&' modbind } raw-signature ';'
        EventInterfaceDecl::Binding first;
        first.modifier = lexer_.Next().text == "begin"
                             ? detector::EventModifier::kBegin
                             : detector::EventModifier::kEnd;
        SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kLParen, "'('"));
        if (lexer_.Peek().kind != TokenKind::kIdent) {
          return Error("expected event name");
        }
        first.event_name = lexer_.Next().text;
        SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
        auto iface = ParseEventInterface(std::move(first));
        if (!iface.ok()) return iface.status();
        decl.event_interface.push_back(std::move(*iface));
      } else {
        // Named event definition: IDENT '=' expr ';'
        if (lexer_.Peek().kind != TokenKind::kIdent) {
          return Error("expected event name");
        }
        NamedEventDef def;
        def.name = lexer_.Next().text;
        SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kEquals, "'='"));
        auto expr = ParseExpr();
        if (!expr.ok()) return expr.status();
        def.expr = std::move(*expr);
        SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kSemicolon, "';'"));
        decl.events.push_back(std::move(def));
      }
    } else if (token.text == "rule") {
      auto rule = ParseRule();
      if (!rule.ok()) return rule.status();
      SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kSemicolon, "';'"));
      decl.rules.push_back(std::move(*rule));
    } else {
      return Error("expected 'attr', 'event' or 'rule', got '" + token.text +
                   "'");
    }
  }
  lexer_.Next();  // '}'
  if (lexer_.Peek().kind == TokenKind::kSemicolon) lexer_.Next();
  return decl;
}

Result<EventInterfaceDecl> Parser::ParseEventInterface(
    EventInterfaceDecl::Binding first) {
  EventInterfaceDecl decl;
  decl.bindings.push_back(std::move(first));
  while (lexer_.Peek().kind == TokenKind::kAmpAmp) {
    lexer_.Next();
    if (lexer_.Peek().kind != TokenKind::kIdent ||
        (lexer_.Peek().text != "begin" && lexer_.Peek().text != "end")) {
      return Error("expected 'begin' or 'end'");
    }
    EventInterfaceDecl::Binding binding;
    binding.modifier = lexer_.Next().text == "begin"
                           ? detector::EventModifier::kBegin
                           : detector::EventModifier::kEnd;
    SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kLParen, "'('"));
    if (lexer_.Peek().kind != TokenKind::kIdent) {
      return Error("expected event name");
    }
    binding.event_name = lexer_.Next().text;
    SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
    decl.bindings.push_back(std::move(binding));
  }
  // Whatever follows, up to ';', is the raw C++ method signature.
  auto signature = lexer_.CaptureUntilSemicolon();
  if (!signature.ok()) return signature.status();
  if (signature->empty()) return Error("empty method signature");
  decl.method_signature = std::move(*signature);
  return decl;
}

Result<NamedEventDef> Parser::ParseNamedEvent() {
  lexer_.Next();  // 'event'
  NamedEventDef def;
  if (lexer_.Peek().kind != TokenKind::kIdent) {
    return Error("expected event name");
  }
  def.name = lexer_.Next().text;
  SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kEquals, "'='"));
  auto expr = ParseExpr();
  if (!expr.ok()) return expr.status();
  def.expr = std::move(*expr);
  return def;
}

Result<RuleDef> Parser::ParseRule() {
  lexer_.Next();  // 'rule'
  RuleDef rule;
  if (lexer_.Peek().kind != TokenKind::kIdent) {
    return Error("expected rule name");
  }
  rule.name = lexer_.Next().text;
  SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kLParen, "'('"));
  if (lexer_.Peek().kind != TokenKind::kIdent) {
    return Error("expected event name");
  }
  rule.event_name = lexer_.Next().text;
  SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kComma, "','"));
  if (lexer_.Peek().kind != TokenKind::kIdent) {
    return Error("expected condition function name");
  }
  rule.condition_fn = lexer_.Next().text;
  SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kComma, "','"));
  if (lexer_.Peek().kind != TokenKind::kIdent) {
    return Error("expected action function name");
  }
  rule.action_fn = lexer_.Next().text;

  // Optional trailing arguments, in paper order:
  // [, context][, coupling][, priority][, trigger]
  while (lexer_.Peek().kind == TokenKind::kComma) {
    lexer_.Next();
    const Token& token = lexer_.Peek();
    if (token.kind == TokenKind::kNumber) {
      rule.priority = static_cast<int>(lexer_.Next().number);
    } else if (token.kind == TokenKind::kIdent && IsContextName(token.text)) {
      auto ctx = ParseContext(lexer_.Next().text);
      if (!ctx.ok()) return ctx.status();
      rule.context = *ctx;
    } else if (token.kind == TokenKind::kIdent && IsCouplingName(token.text)) {
      auto coupling = ParseCoupling(lexer_.Next().text);
      if (!coupling.ok()) return coupling.status();
      rule.coupling = *coupling;
    } else if (token.kind == TokenKind::kIdent && IsTriggerName(token.text)) {
      auto trigger = ParseTrigger(lexer_.Next().text);
      if (!trigger.ok()) return trigger.status();
      rule.trigger = *trigger;
    } else {
      return Error("unexpected rule argument '" + token.text + "'");
    }
  }
  SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
  return rule;
}

Result<std::unique_ptr<EventExpr>> Parser::ParseExpr() {
  // SEQ is spelled 'then' (see ParseAnd) because ';' doubles as the
  // statement terminator; Snoop's ';' sequence operator maps onto it 1:1.
  return ParseOr();
}

// The binary-operator loops fold into a plain pointer and wrap it in a
// Result once, on return: move-assigning a Result inside the loop makes
// GCC's -Wmaybe-uninitialized (under the sanitizer flags) read the Status
// alternative of a variant that holds the pointer.
Result<std::unique_ptr<EventExpr>> Parser::ParseOr() {
  auto first = ParseAnd();
  if (!first.ok()) return first;
  std::unique_ptr<EventExpr> left = std::move(*first);
  while (lexer_.Peek().kind == TokenKind::kPipe) {
    lexer_.Next();
    auto right = ParseAnd();
    if (!right.ok()) return right;
    left = Binary(EventExpr::Kind::kOr, std::move(left), std::move(*right));
  }
  return left;
}

Result<std::unique_ptr<EventExpr>> Parser::ParseAnd() {
  auto first = ParsePrimary();
  if (!first.ok()) return first;
  std::unique_ptr<EventExpr> left = std::move(*first);
  for (;;) {
    // 'then' spells SEQ without colliding with the ';' terminator.
    const bool seq = lexer_.Peek().kind == TokenKind::kIdent &&
                     lexer_.Peek().text == "then";
    if (!seq && lexer_.Peek().kind != TokenKind::kCaret) return left;
    lexer_.Next();
    auto right = ParsePrimary();
    if (!right.ok()) return right;
    left = Binary(seq ? EventExpr::Kind::kSeq : EventExpr::Kind::kAnd,
                  std::move(left), std::move(*right));
  }
}

Result<std::unique_ptr<EventExpr>> Parser::ParsePrimary() {
  const Token& token = lexer_.Peek();
  if (token.kind == TokenKind::kLParen) {
    lexer_.Next();
    auto expr = ParseExpr();
    if (!expr.ok()) return expr;
    SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
    return expr;
  }
  if (token.kind != TokenKind::kIdent) {
    return Error("expected event expression, got '" + token.text + "'");
  }

  // begin(...)/end(...) primitive specification.
  if (token.text == "begin" || token.text == "end") {
    const auto modifier = token.text == "begin"
                              ? detector::EventModifier::kBegin
                              : detector::EventModifier::kEnd;
    lexer_.Next();
    return ParsePrimitive(modifier);
  }

  if (token.text == "NOT") {
    lexer_.Next();
    SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kLParen, "'('"));
    auto canceller = ParseExpr();
    if (!canceller.ok()) return canceller;
    SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
    SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kLBracket, "'['"));
    auto opener = ParseExpr();
    if (!opener.ok()) return opener;
    SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kComma, "','"));
    auto closer = ParseExpr();
    if (!closer.ok()) return closer;
    SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kRBracket, "']'"));
    auto node = std::make_unique<EventExpr>();
    node->kind = EventExpr::Kind::kNot;
    node->children.push_back(std::move(*opener));
    node->children.push_back(std::move(*canceller));
    node->children.push_back(std::move(*closer));
    return node;
  }

  if (token.text == "A" || token.text == "P") {
    const bool aperiodic = token.text == "A";
    lexer_.Next();
    bool star = false;
    if (lexer_.Peek().kind == TokenKind::kStar) {
      lexer_.Next();
      star = true;
    }
    SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kLParen, "'('"));
    auto first = ParseExpr();
    if (!first.ok()) return first;
    SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kComma, "','"));
    auto node = std::make_unique<EventExpr>();
    node->children.push_back(std::move(*first));
    if (aperiodic) {
      auto middle = ParseExpr();
      if (!middle.ok()) return middle;
      SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kComma, "','"));
      auto closer = ParseExpr();
      if (!closer.ok()) return closer;
      SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
      node->kind =
          star ? EventExpr::Kind::kAperiodicStar : EventExpr::Kind::kAperiodic;
      node->children.push_back(std::move(*middle));
      node->children.push_back(std::move(*closer));
    } else {
      if (lexer_.Peek().kind != TokenKind::kNumber) {
        return Error("expected period in milliseconds");
      }
      node->time_ms = lexer_.Next().number;
      SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kComma, "','"));
      auto closer = ParseExpr();
      if (!closer.ok()) return closer;
      SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
      node->kind =
          star ? EventExpr::Kind::kPeriodicStar : EventExpr::Kind::kPeriodic;
      node->children.push_back(std::move(*closer));
    }
    return node;
  }

  if (token.text == "ANY") {
    lexer_.Next();
    SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kLParen, "'('"));
    if (lexer_.Peek().kind != TokenKind::kNumber) {
      return Error("expected ANY threshold");
    }
    auto node = std::make_unique<EventExpr>();
    node->kind = EventExpr::Kind::kAny;
    node->any_threshold = static_cast<std::size_t>(lexer_.Next().number);
    while (lexer_.Peek().kind == TokenKind::kComma) {
      lexer_.Next();
      auto child = ParseExpr();
      if (!child.ok()) return child;
      node->children.push_back(std::move(*child));
    }
    SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
    if (node->children.size() < 2) {
      return Error("ANY needs at least two constituent events");
    }
    if (node->any_threshold == 0 ||
        node->any_threshold > node->children.size()) {
      return Error("ANY threshold out of range");
    }
    return node;
  }

  if (token.text == "PLUS") {
    lexer_.Next();
    SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kLParen, "'('"));
    auto base = ParseExpr();
    if (!base.ok()) return base;
    SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kComma, "','"));
    if (lexer_.Peek().kind != TokenKind::kNumber) {
      return Error("expected delay in milliseconds");
    }
    auto node = std::make_unique<EventExpr>();
    node->kind = EventExpr::Kind::kPlus;
    node->time_ms = lexer_.Next().number;
    node->children.push_back(std::move(*base));
    SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
    return node;
  }

  // Plain reference to a previously defined event.
  auto node = std::make_unique<EventExpr>();
  node->kind = EventExpr::Kind::kRef;
  node->ref_name = lexer_.Next().text;
  return node;
}

Result<std::unique_ptr<EventExpr>> Parser::ParsePrimitive(
    detector::EventModifier modifier) {
  SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kLParen, "'('"));
  if (lexer_.Peek().kind != TokenKind::kString) {
    return Error("expected class name string");
  }
  auto node = std::make_unique<EventExpr>();
  node->kind = EventExpr::Kind::kPrimitive;
  node->modifier = modifier;
  node->class_name = lexer_.Next().text;
  if (lexer_.Peek().kind == TokenKind::kColon) {
    lexer_.Next();
    if (lexer_.Peek().kind != TokenKind::kString) {
      return Error("expected instance name string");
    }
    node->instance_name = lexer_.Next().text;
  }
  SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kComma, "','"));
  if (lexer_.Peek().kind != TokenKind::kString) {
    return Error("expected method signature string");
  }
  node->signature = lexer_.Next().text;
  SENTINEL_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
  return node;
}

}  // namespace sentinel::snoop
