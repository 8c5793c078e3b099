#!/usr/bin/env bash
# Doc link checker: every relative markdown link and every backtick-quoted
# repo path referenced from a tracked *.md must exist. External links
# (http/https), anchors, mailto and link syntax inside `code spans` are
# skipped. A backtick-quoted path is a token with a `/` ending in
# .h/.cc/.cpp/.md/.sh/.py/.json/.txt; it resolves against the repo root, then
# the doc's directory, then src/. Two kinds of doc are exempt from the path
# check: CHANGES.md, a history that names files as they were, and work plans
# (docs with open "- [ ]" items), which name files still to be written or
# removed. Run from anywhere; checks the whole repo.
#
#   scripts/check_docs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# Tracked markdown files: build trees and local notes are not docs.
mapfile -t MD_FILES < <(git ls-files '*.md')

checked=0
for md in "${MD_FILES[@]}"; do
  # A tracked doc deleted from the worktree (not yet committed) has nothing
  # to check; links *to* it from other docs still fail below.
  if [ ! -e "$md" ]; then
    echo "check_docs.sh: skipping $md (tracked but deleted from the worktree)"
    continue
  fi
  checked=$((checked + 1))
  dir="$(dirname "$md")"
  # [text](target) style links, one per line even when a line holds several.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"          # strip an anchor suffix
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ]; then
      echo "BROKEN LINK: $md -> $target" >&2
      fail=1
    fi
  done < <(sed -E 's/`[^`]*`//g' "$md" | grep -oE '\]\([^)]+\)' |
             sed -E 's/^\]\(//; s/\)$//')

  [ "$(basename "$md")" = CHANGES.md ] && continue
  grep -qE '^[[:space:]]*- \[ \]' "$md" && continue
  while IFS= read -r path; do
    if [ ! -e "$path" ] && [ ! -e "$dir/$path" ] && [ ! -e "src/$path" ]; then
      echo "STALE PATH: $md -> $path" >&2
      fail=1
    fi
  done < <(grep -oE '`[^` ]*/[^` ]*\.(h|cc|cpp|md|sh|py|json|txt)`' "$md" | tr -d '`')
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs.sh: broken links or stale paths found" >&2
  exit 1
fi
echo "check_docs.sh: $checked markdown files, all links and paths resolve"
