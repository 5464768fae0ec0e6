#include "stream/sax.h"

#include <cctype>

namespace treeq {
namespace stream {

void StreamTree(const Tree& tree, const SaxHandler& handler) {
  SaxEvent event;  // reused, so label storage is allocated once per walk
  Status s = WalkTree(
      tree, ExecContext::Unbounded(),
      [&](NodeId v) {
        event.kind = SaxEvent::Kind::kStartElement;
        event.node = v;
        event.labels.clear();
        for (LabelId l : tree.labels(v)) {
          event.labels.push_back(tree.label_table().Name(l));
        }
        handler(event);
      },
      [&](NodeId v) {
        event.kind = SaxEvent::Kind::kEndElement;
        event.node = v;
        event.labels.clear();
        handler(event);
      });
  TREEQ_CHECK(s.ok());  // unbounded contexts never trip
}

std::vector<SaxEvent> ToSaxEvents(const Tree& tree) {
  std::vector<SaxEvent> events;
  StreamTree(tree, [&events](const SaxEvent& e) { events.push_back(e); });
  return events;
}

namespace {

/// A single-pass scanner over XML text keeping only the open-tag stack.
class XmlScanner {
 public:
  XmlScanner(std::string_view input, const SaxHandler& handler)
      : input_(input), handler_(handler) {}

  Status Scan() {
    SkipMisc();
    if (Eof() || Peek() != '<') return Error("expected a root element");
    int root_elements = 0;
    while (!Eof()) {
      if (Peek() == '<') {
        if (input_.substr(pos_).starts_with("</")) {
          TREEQ_RETURN_IF_ERROR(CloseTag());
        } else if (input_.substr(pos_).starts_with("<!--") ||
                   input_.substr(pos_).starts_with("<?") ||
                   input_.substr(pos_).starts_with("<!")) {
          SkipMisc();
        } else {
          if (open_tags_.empty() && root_elements > 0) {
            return Error("trailing content after the root element");
          }
          if (open_tags_.empty()) ++root_elements;
          TREEQ_RETURN_IF_ERROR(OpenTag());
        }
      } else {
        ++pos_;  // text content is skipped
      }
      if (open_tags_.empty() && root_elements > 0) {
        SkipMisc();
        if (!Eof()) return Error("trailing content after the root element");
        return Status::OK();
      }
    }
    if (!open_tags_.empty()) {
      return Error("unexpected end: <" + open_tags_.back() + "> still open");
    }
    return Status::OK();
  }

 private:
  bool Eof() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }

  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (!Eof() && std::isspace(static_cast<unsigned char>(Peek()))) ++pos_;
  }

  void SkipMisc() {
    for (;;) {
      SkipWhitespace();
      if (Eof() || Peek() != '<') return;
      if (input_.substr(pos_).starts_with("<!--")) {
        size_t end = input_.find("-->", pos_ + 4);
        pos_ = (end == std::string_view::npos) ? input_.size() : end + 3;
      } else if (input_.substr(pos_).starts_with("<?") ||
                 input_.substr(pos_).starts_with("<!")) {
        size_t end = input_.find('>', pos_);
        pos_ = (end == std::string_view::npos) ? input_.size() : end + 1;
      } else {
        return;
      }
    }
  }

  Result<std::string> ScanName() {
    size_t start = pos_;
    while (!Eof() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                      Peek() == '_' || Peek() == '-' || Peek() == '.' ||
                      Peek() == ':')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a name");
    return std::string(input_.substr(start, pos_ - start));
  }

  Status OpenTag() {
    ++pos_;  // '<'
    TREEQ_ASSIGN_OR_RETURN(std::string tag, ScanName());
    SaxEvent start;
    start.kind = SaxEvent::Kind::kStartElement;
    start.node = next_node_++;
    start.labels.push_back(tag);
    bool self_closing = false;
    for (;;) {
      SkipWhitespace();
      if (Eof()) return Error("unexpected end inside a tag");
      if (Peek() == '>') {
        ++pos_;
        break;
      }
      if (Peek() == '/') {
        ++pos_;
        if (Eof() || Peek() != '>') return Error("expected '>' after '/'");
        ++pos_;
        self_closing = true;
        break;
      }
      TREEQ_ASSIGN_OR_RETURN(std::string attr, ScanName());
      SkipWhitespace();
      if (Eof() || Peek() != '=') return Error("expected '='");
      ++pos_;
      SkipWhitespace();
      if (Eof() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected a quoted value");
      }
      char quote = Peek();
      ++pos_;
      size_t vstart = pos_;
      while (!Eof() && Peek() != quote) ++pos_;
      if (Eof()) return Error("unterminated attribute value");
      std::string value(input_.substr(vstart, pos_ - vstart));
      ++pos_;
      start.labels.push_back("@" + attr);
      start.labels.push_back("@" + attr + "=" + value);
    }
    handler_(start);
    if (self_closing) {
      SaxEvent end;
      end.kind = SaxEvent::Kind::kEndElement;
      end.node = start.node;
      handler_(end);
    } else {
      open_tags_.push_back(tag);
      open_nodes_.push_back(start.node);
    }
    return Status::OK();
  }

  Status CloseTag() {
    pos_ += 2;  // "</"
    TREEQ_ASSIGN_OR_RETURN(std::string tag, ScanName());
    SkipWhitespace();
    if (Eof() || Peek() != '>') return Error("expected '>' in a close tag");
    ++pos_;
    if (open_tags_.empty() || open_tags_.back() != tag) {
      return Error("mismatched close tag </" + tag + ">");
    }
    SaxEvent end;
    end.kind = SaxEvent::Kind::kEndElement;
    end.node = open_nodes_.back();
    open_tags_.pop_back();
    open_nodes_.pop_back();
    handler_(end);
    return Status::OK();
  }

  std::string_view input_;
  const SaxHandler& handler_;
  size_t pos_ = 0;
  NodeId next_node_ = 0;
  std::vector<std::string> open_tags_;
  std::vector<NodeId> open_nodes_;
};

}  // namespace

Status StreamXmlText(std::string_view input, const SaxHandler& handler) {
  XmlScanner scanner(input, handler);
  return scanner.Scan();
}

}  // namespace stream
}  // namespace treeq
