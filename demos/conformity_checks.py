"""
Subtitling conformity: line length, reading speed, segmentation
===============================================================

Shows the three conformity checks: characters per line against the
42-character bound, characters per second against the 21 cps bound,
and the plausibility of break placement given part-of-speech tags.
"""

from subeval.conformity import (
    ConformityThresholds,
    conformity_report,
    segmentation_plausibility,
)
from subeval.model import SubtitleBlock, SubtitleDocument, Utterance
from subeval.srt import parse_srt
from subeval.textproc import Scheme, attach_tags, tokenize

# Timed subtitles usually arrive as SRT.  The second cue is far too
# dense to read in time; the third line is too long to display.
document = parse_srt(
    "1\n"
    "00:00:01,000 --> 00:00:03,500\n"
    "Hello everyone,\n"
    "welcome to the show.\n"
    "\n"
    "2\n"
    "00:00:03,500 --> 00:00:04,500\n"
    "Today we talk about climate change and its effects.\n"
    "\n"
    "3\n"
    "00:00:04,500 --> 00:00:08,000\n"
    "Sea levels are rising everywhere, faster than anyone expected.\n"
)

# conformity_report scores every rate in one pass over the document.
report = conformity_report(document)
print("line length  :", report.length_rate)
print("reading speed:", report.reading_speed_rate)

# Thresholds are plain data and inclusive: a 42-character line and a
# 21.0 cps block both conform.
relaxed = conformity_report(document, ConformityThresholds(max_cpl=70, max_cps=60.0))
print("relaxed      :", relaxed.length_rate, relaxed.reading_speed_rate)

# Segmentation plausibility needs POS tags.  A break is plausible
# after punctuation, or between a content word (chunk) and a function
# word (chink).  The break below splits an adjective from its noun,
# which no subtitler would do.
bad = tokenize("the red <eol> car stopped . <eob>", Scheme.WHITESPACE)
bad_tagged = attach_tags(bad, ["DET", "ADJ", "NOUN", "VERB", "PUNCT"])
good = tokenize("we left <eol> because it rained . <eob>", Scheme.WHITESPACE)
good_tagged = attach_tags(good, ["PRON", "VERB", "SCONJ", "PRON", "VERB", "PUNCT"])

print("bad split    :", segmentation_plausibility([bad_tagged]))
print("good split   :", segmentation_plausibility([good_tagged]))

# The report also carries the segmentation rate and the selected break
# count, and degrades gracefully: without timing the speed rate is None,
# without tags the segmentation rate is None.
untimed = SubtitleDocument(
    (Utterance(id="0", blocks=(SubtitleBlock(("Hi there.",)),)),)
)
report = conformity_report(untimed)
print("untimed doc  :", report)
