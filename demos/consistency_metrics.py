"""
Caption-subtitle consistency
============================

Reproduces the consistency analysis of a three-block English caption
paired with its French subtitle: structural consistency (same block
counts), lexical consistency (aligned words land in the same-index
block), line-count consistency and the character ratio.
"""

import os

from subeval.align import load_pharaoh
from subeval.consistency import (
    block_index_map,
    consistency_report,
    lexical_consistency_pair,
)
from subeval.markers import load_marked_text
from subeval.model import pair_documents

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "..", "tests", "data", "paper_example")

# One utterance, three blocks on each side.  The alignments were drawn
# by hand over the detached-punctuation tokens of each side.
captions = load_marked_text(os.path.join(DATA, "captions.txt"))
subtitles = load_marked_text(os.path.join(DATA, "subtitles.txt"))
pair = pair_documents(captions, subtitles)[0]
align_c2s = load_pharaoh(os.path.join(DATA, "align.c2s"))[0]
align_s2c = load_pharaoh(os.path.join(DATA, "align.s2c"))[0]

# Every non-break token belongs to a block; the map is what the
# lexical metric compares across sides.
cap_map = block_index_map(pair.caption, "en")
sub_map = block_index_map(pair.subtitle, "fr")
print(f"caption : {cap_map.words} tokens in {cap_map.blocks} blocks")
print(f"subtitle: {sub_map.words} tokens in {sub_map.blocks} blocks")

# A subtitle token is consistent when at least one of its alignment
# links reaches a caption token of the same block index.  Six tokens
# fail here, giving 17/23 in the subtitle-to-caption direction.
result = lexical_consistency_pair(
    pair, align_c2s, align_s2c, caption_lang="en", subtitle_lang="fr"
)
print(f"lex c2s={result.lex_c2s:.3f} s2c={result.lex_s2c:.3f} "
      f"pair={result.lex_pair:.3f}")
print("inconsistent subtitle tokens:",
      [s for side, _, s in result.inconsistent_tokens if side == "subtitle"])

# The corpus-level report averages lex_pair over pairs and adds the
# structural, line-count and character-ratio views.
report = consistency_report(
    [pair], [(align_c2s, align_s2c)], caption_lang="en", subtitle_lang="fr"
)
print(f"structural={report.structural:.2f} lexical={report.lexical:.3f} "
      f"line_count={report.line_count:.2f} char_ratio={report.char_ratio:.3f}")
